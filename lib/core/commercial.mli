(** Commercial SCADA baseline (NIST-best-practices testbed system):
    primary-backup master, PLCs directly on the operations network,
    plaintext unauthenticated master-to-HMI protocol. The red team's
    first victim (Section IV-B) and the latency comparator (Section V).

    The payload constructors are public on purpose: anyone on the wire
    can read and forge them — the weakness the MITM attack exploited. *)

type Netbase.Packet.payload +=
  | Hmi_plain of { breaker : string; closed : bool }
  | Hmi_command of { breaker : string; close : bool }
  | Heartbeat of { from_primary : bool }

val hmi_port : int

val heartbeat_port : int

val command_port : int

type t

(** The masters poll every PLC, and refresh the whole HMI display, every
    0.5 s. *)
val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> Plc.Power.scenario -> t

val counters : t -> Sim.Stats.Counter.t

val ops_switch : t -> Netbase.Switch.t

val pcap : t -> Netbase.Pcap.t

val hmi_host : t -> Netbase.Host.t

val primary_host : t -> Netbase.Host.t

val active_master_host : t -> Netbase.Host.t

val plc_hosts : t -> Netbase.Host.t array

val devices : t -> Plc.Device.t array

val scenario : t -> Plc.Power.scenario

val breakers : t -> Plc.Breaker.t array

val find_breaker : t -> string -> Plc.Breaker.t option

val on_display_change : t -> (breaker:string -> closed:bool -> unit) -> unit

val displayed_closed : t -> string -> bool option

(** Operator command from the commercial HMI (plaintext, unauthenticated). *)
val hmi_command : t -> breaker:string -> close:bool -> unit

(** Kill the primary; the backup takes over on heartbeat timeout. *)
val fail_primary : t -> unit
