(** Prime client session (in Spire: a PLC/RTU proxy or HMI). Submits
    signed updates and confirms execution once f + 1 replicas report the
    same result. *)

type t

val create :
  engine:Sim.Engine.t ->
  keystore:Crypto.Signature.keystore ->
  keypair:Crypto.Signature.keypair ->
  send_to_replica:(dst:int -> Msg.t -> unit) ->
  Config.t ->
  t

(** The client's signing identity (how replicas know it). *)
val identity : t -> string

val counters : t -> Sim.Stats.Counter.t

(** Callback fired once per update, when f + 1 matching replies arrive. *)
val set_on_confirmed : t -> (client_seq:int -> latency:float -> unit) -> unit

(** Submit an operation; sends to [targets] (default: f + 1 replicas,
    rotating with the sequence number). Returns the client sequence
    number for tracking. *)
val submit : ?targets:int list -> t -> op:string -> int

(** Feed a [Client_reply] received from the network. *)
val handle_reply : t -> Msg.t -> unit

(** Periodically re-send unconfirmed updates to every replica, oldest
    first (survives message loss during network failover or replica
    recovery). *)
val enable_retransmit : t -> period:float -> unit

val is_confirmed : t -> client_seq:int -> bool

(** Client sequence numbers not yet confirmed. *)
val outstanding : t -> int list
