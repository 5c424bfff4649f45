(** Ethernet switch with learning or static (port-security) forwarding,
    per-port serialisation with bounded backlog, and mirror taps for
    passive capture. The static mode reproduces the paper's "static
    mapping of MAC addresses to switch ports" hardening. *)

type t

type port_id = int

type mode = Learning | Static

(** Seconds of queued serialisation a port holds before it tail-drops
    (0.05). *)
val max_backlog : float

val create :
  ?mode:mode ->
  ?bandwidth:float ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  string ->
  t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

(** [attach t deliver] adds a port whose egress calls [deliver]. *)
val attach : t -> (Packet.frame -> unit) -> port_id

(** [bind_mac t mac port] installs a static MAC-port binding (used by
    [Static] mode for both admission and forwarding). Raises
    [Invalid_argument] on an unknown port. *)
val bind_mac : t -> Addr.Mac.t -> port_id -> unit

(** Add a mirror tap receiving a copy of every admitted frame. *)
val add_tap : t -> (Packet.frame -> unit) -> unit

(** [inject t port frame] is called by the attached device to transmit. *)
val inject : t -> port_id -> Packet.frame -> unit
