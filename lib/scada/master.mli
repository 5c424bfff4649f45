(** SCADA master application bound to one Prime replica (Section III-A):
    applies ordered operations to the application state, drives proxies
    and HMIs with signed messages, and runs the application-level state
    transfer when Prime's catchup signals for it. *)

type net = {
  broadcast_masters : Netbase.Packet.payload -> size:int -> unit; (* internal network *)
  send_endpoint : endpoint:string -> Netbase.Packet.payload -> size:int -> unit; (* external *)
  push_hmis : Netbase.Packet.payload -> size:int -> unit;
      (* external: one send that reaches every HMI (display pushes) *)
}

type t

(** [media] is the replica machine's durable device; the master keeps
    its {!Durable.t} there. *)
val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keystore:Crypto.Signature.keystore ->
  keypair:Crypto.Signature.keypair ->
  config:Prime.Config.t ->
  replica:Prime.Replica.t ->
  scenario:Plc.Power.scenario ->
  media:Store.Media.t ->
  net:net ->
  t

val id : t -> int

val state : t -> State.t

val counters : t -> Sim.Stats.Counter.t

(** Observer invoked on every applied operation (historian feed, tests). *)
val on_apply : t -> (exec_seq:int -> Op.t -> unit) -> unit

(** The replica's durable store on [media]: state-transfer replies serve
    its latest authenticated checkpoint, and accepted peer checkpoints
    are installed through it. *)
val durable : t -> Durable.t

(** Handle a SCADA-level payload from the network (state-transfer
    requests/replies from peer masters). *)
val handle_payload : t -> Netbase.Packet.payload -> unit

(** Ground-truth reset after an assumption breach: abandon state; the
    field devices repopulate it through the proxies' polling. *)
val ground_truth_reset : t -> unit
