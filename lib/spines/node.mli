(** Spines overlay daemon: authenticated/encrypted links, intrusion-
    tolerant flooding with source fairness (the only data
    plane; hellos tell flooding which links are dead, and a relay skips
    the origin's neighbors that the origin reached itself), and client
    sessions.

    The link-message payload constructor is private to the implementation:
    attack code cannot inspect overlay traffic contents (modelling link
    encryption) or forge well-formed link messages without a daemon whose
    key material it controls. *)

type node_id = Topology.node_id

(** Destination of a client message: a specific client on a specific
    overlay node, every client and remote session subscribed to a group,
    or a named remote session client attached to some daemon. *)
type dst =
  | To_client of { node : node_id; client : int }
  | To_group of string
  | To_session of string

type config = {
  topology : Topology.t;
  port : int;
  session_port : int; (* client-facing port for remote session clients *)
  group_key : string option; (* None models a daemon built without keys *)
}

val default_config : ?port:int -> ?session_port:int -> ?group_key:string -> Topology.t -> config

(** Seconds between a daemon's hellos on each link (1.0). *)
val hello_period : float

(** Seconds without a valid hello ack after which a link is marked down
    (3.5). *)
val hello_timeout : float

(** Per-origin sequence horizon of the dedup windows of daemons and
    sessions (4096). *)
val dedup_window : int

(** Overlay message overhead added to every client payload, bytes. *)
val overhead_bytes : int

type t

val create :
  engine:Sim.Engine.t -> trace:Sim.Trace.t -> host:Netbase.Host.t -> id:node_id -> config -> t

val id : t -> node_id

val counters : t -> Sim.Stats.Counter.t

val is_running : t -> bool

(** Tell the daemon the IP address of an overlay peer. *)
val set_peer_address : t -> node_id -> Netbase.Addr.Ip.t -> unit

(** Bind the daemon's port and start hello timers. Raises
    [Invalid_argument] if already running. *)
val start : t -> unit

(** Unbind and go silent (the red team's "stopped the Spines daemon"). *)
val stop : t -> unit

(** Arm a named exploit in this daemon (the red team's patched binary).
    ["corrupt-frames"] makes it ship frames whose authenticated manifest
    is truncated. Any other name, such as ["drop-foreign-traffic"],
    targets a code path an intrusion-tolerant daemon does not have, and
    changes nothing. *)
val inject_exploit : t -> string -> unit

(** Fault-injection verdict for one outgoing link message, drawn by a
    chaos injector: drop it, send a duplicate copy, and/or delay it (a
    delayed message can overtake later traffic, modelling reordering). *)
type fault_decision = { fd_drop : bool; fd_duplicate : bool; fd_delay : float }

(** Install (or clear, with [None]) a per-message fault injector consulted
    on every outgoing link transmission. The injector owns its randomness,
    so schedules replay deterministically from the chaos seed. *)
val set_fault_injector : t -> (peer:node_id -> fault_decision) option -> unit

(** Dedup-window entries evicted / currently retained, for bounded-memory
    assertions. *)
val dedup_evictions : t -> int

val dedup_retained : t -> int

(** Attach a local client session. Raises [Invalid_argument] on duplicate
    client ids. *)
val register_client :
  t ->
  client:int ->
  ?groups:string list ->
  (src:node_id * int -> size:int -> Netbase.Packet.payload -> unit) ->
  unit

(** Send from a local client. Local destinations are delivered directly;
    remote ones go to every live neighbor, stamped with the neighbors
    whose links are down, which relays then serve. *)
val send :
  t -> client:int -> size:int -> dst -> Netbase.Packet.payload -> unit

(** Remote session client: how proxies and HMIs reach the overlay. A
    session attaches by name to one daemon at a time (heartbeat
    re-attachment, automatic failover to the next daemon on silence) and
    exchanges authenticated messages with it; overlay traffic addressed
    [To_session name], or [To_group g] for a group [g] the session
    joined, reaches the daemon currently hosting the session and is
    relayed to the client machine, once per message. *)
module Session : sig
  type session

  (** [groups] (default none) are the groups the session joins, as
      [register_client ?groups] does for a local client. Every attach
      carries the list under the session MAC, and the hosting daemon
      replaces its copy at each attach. *)
  val create :
    ?local_port:int ->
    ?groups:string list ->
    engine:Sim.Engine.t ->
    trace:Sim.Trace.t ->
    host:Netbase.Host.t ->
    key:string ->
    daemons:(node_id * Netbase.Addr.Ip.t) list ->
    daemon_session_port:int ->
    name:string ->
    unit ->
    session

  val name : session -> string

  val counters : session -> Sim.Stats.Counter.t

  (** The daemon the session currently attaches to. *)
  val current_daemon : session -> node_id

  (** Receive overlay payloads delivered to this session. *)
  val set_handler : session -> (size:int -> Netbase.Packet.payload -> unit) -> unit

  (** Bind the local port, attach, and start heartbeats. *)
  val start : session -> unit

  val stop : session -> unit

  (** Send into the overlay through the current daemon. *)
  val send : session -> size:int -> dst -> Netbase.Packet.payload -> unit
end
