(** Field proxy: the legacy protocol over a dedicated wire on the field
    side (Modbus to a PLC, or DNP3 to an RTU), signed SCADA traffic
    toward the replicated masters, and the f + 1 command threshold that
    keeps a single compromised master from operating field equipment.

    A Modbus proxy polls the PLC's holding registers. A DNP3 proxy runs
    fast class-1 event polls plus integrity polls at 20x that period,
    and ships the RTU's analog image as dead-band-filtered Telemetry
    ops. Everything toward the masters is shared. *)

type t

(** The device a proxy fronts. [analog_names] are the measurement points
    served by the RTU's analog image, in DNP3 analog point index order;
    when non-empty the event poll also reads analogs. *)
type protocol = Modbus | Dnp3 of { analog_names : string list }

(** The UDP port the proxy's Modbus client answers on. *)
val modbus_local_port : int

(** The UDP port the proxy's DNP3 master answers on. *)
val dnp3_local_port : int

val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keystore:Crypto.Signature.keystore ->
  config:Prime.Config.t ->
  host:Netbase.Host.t ->
  device_ip:Netbase.Addr.Ip.t ->
  breaker_names:string list ->
  client:Prime.Client.t ->
  protocol ->
  string ->
  t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

(** Observer invoked each time a breaker command passes the f+1 gate and
    is actuated on the device — exactly once per decided key. Chaos
    invariant checks use it to assert at-most-once actuation. *)
val set_on_actuate : t -> (key:string -> breaker:string -> close:bool -> unit) -> unit

(** FDIA hook: rewrite the polled analog image (name, value) before
    dead-band filtering and submission. [None] restores honesty. The
    binary (breaker) path is not affected — which is exactly what makes
    the attack invisible to breaker-state invariants. [false] (and no
    effect) when the proxy fronts a Modbus PLC, which has no analog
    image. *)
val set_analog_rewrite : t -> ((string * int) list -> (string * int) list) option -> bool

(** Handle a payload from the replicated system (breaker commands, Prime
    client replies). *)
val handle_payload : t -> Netbase.Packet.payload -> unit

(** Bind the field protocol's client port and start polling at
    [poll_period] (DNP3: event polls, integrity polls at 20x that). *)
val start : t -> poll_period:float -> unit

val stop : t -> unit

(** Forget last-reported positions and readings so the next poll
    re-submits everything (used by the ground-truth rebuild). *)
val reset_reporting : t -> unit
