(** Emulated PLC (OpenPLC stand-in): Modbus coils command wired breakers,
    holding registers expose actual positions. Also carries the
    unauthenticated vendor maintenance service (configuration dump /
    upload) the red team abused on the commercial system; once malicious
    logic is uploaded, legitimate coil writes are ignored and the
    attacker's direct actuation commands are obeyed. *)

(** Maintenance protocol payloads (unauthenticated by vendor design;
    network reachability is the only protection). *)
type Netbase.Packet.payload +=
  | Maint_dump_request
  | Maint_dump_reply of string
  | Maint_upload of string
  | Maint_actuate of { coil : int; close : bool }
  | Maint_ack

val maintenance_port : int

type t

val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> name:string -> n_coils:int -> t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

val n_coils : t -> int

(** Has a non-factory configuration been uploaded? *)
val logic_compromised : t -> bool

(** Wire a breaker to a coil. Raises [Invalid_argument] on a bad coil. *)
val wire_breaker : t -> coil:int -> Breaker.t -> unit

val breaker : t -> coil:int -> Breaker.t option

(** Process one Modbus request (exposed for unit tests; network service
    via {!serve_on}). *)
val handle_request : t -> Modbus.request Modbus.framed -> Modbus.response Modbus.framed

(** Bind the Modbus and maintenance services on [host]. *)
val serve_on : t -> Netbase.Host.t -> unit
