(** Prime replica: pre-ordering, ordering, suspect-leader monitoring,
    view changes, reconciliation and catchup, over an abstract transport.

    The application (in Spire: the SCADA master) attaches via {!set_app}:
    it receives every executed update in the agreed order, and the
    [state_transfer_needed] signal when replication-level catchup cannot
    close a gap (Section III-A of the paper). *)

(** Attack-model knobs used by the benchmarks. [Slow_leader d] broadcasts
    pre-prepares composed [d] seconds earlier (a lagging leader proposes
    stale information); [Censor_origin o] omits origin [o]'s summaries
    from proposed matrices. *)
type misbehavior =
  | Honest
  | Crash_silent
  | Slow_leader of float
  | Censor_origin of int
  | Equivocate (* conflicting pre-prepares to different replicas *)

type transport = {
  send : dst:int -> Msg.t -> unit;
  broadcast : Msg.t -> unit; (* to every other replica *)
  reply_to_client : client:string -> Msg.t -> unit;
}

type app = {
  apply : exec_seq:int -> Msg.Update.t -> unit;
  state_transfer_needed : unit -> unit;
}

type t

val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keystore:Crypto.Signature.keystore ->
  keypair:Crypto.Signature.keypair ->
  transport:transport ->
  id:int ->
  Config.t ->
  t

val id : t -> int

(** Current view number (leader = view mod n). *)
val view : t -> int

val counters : t -> Sim.Stats.Counter.t

(** Global execution counter: updates executed so far. *)
val exec_seq : t -> int

val is_running : t -> bool

(** Whether this replica's preorder sequence has been re-based above any
    pre-recovery use (always true until a [restart_clean]; becomes true
    again once a quorum of rebase reports arrives). Chaos recovery-
    liveness checks poll this to decide a recovered replica has rejoined. *)
val origin_synced : t -> bool

(** The currently armed misbehaviour knob. *)
val misbehavior : t -> misbehavior

val set_app : t -> app -> unit

val set_misbehavior : t -> misbehavior -> unit

(** Register an observer invoked after each executed update (testing,
    metrics, durable logging). Observers accumulate; each registered hook
    fires in registration order and survives [restart_clean]. *)
val set_on_execute : t -> (exec_seq:int -> Msg.Update.t -> unit) -> unit

(** Set the observer invoked whenever execution reaches a settled
    point: after each fully-executed batch and after a catchup reply is
    adopted in full, never while catchup entries still lag the
    responder's cursors. At that moment [order_state] and the
    application state describe the same point of the agreed history
    (mid-batch they do not — [Order.try_execute] advances cursors
    wholesale before per-update hooks run). [~checkpoint] is [true] at
    the first such point in each new [checkpoint_interval] window of
    [exec_seq], where the replica moves its release mark: a pure
    function of the agreed history, so every replica is told at the same
    point, and the one place the checkpoint schedule is decided. There
    is one observer (the durable store); a second call replaces it. *)
val set_on_batch_end : t -> (checkpoint:bool -> unit) -> unit

(** Deliver a protocol message from the transport. *)
val handle_message : t -> Msg.t -> unit

(** Inject a client update directly (bypassing the network). *)
val submit_update : t -> Msg.Update.t -> unit

(** Bind timers and begin participating. Raises [Invalid_argument] if
    already running. *)
val start : t -> unit

(** Stop participating; protocol state is retained (a crash). *)
val shutdown : t -> unit

(** Proactive recovery: wipe all protocol and execution state and rejoin
    from a clean image; catchup or the application-level state transfer
    rebuilds. *)
val restart_clean : t -> unit

(** Snapshot of (next_exec_pp, exec_seq, per-origin cursor, executed
    client-op set) for application-level state transfer. *)
val order_state : t -> int * int * int array * (string * int) list

(** The first three components of {!order_state}, without the client
    set: the cursors a durable mark records. *)
val exec_point : t -> int * int * int array

(** Ordering instances and pre-order slots still held for history this
    replica has already executed. Both stay within one to two
    [checkpoint_interval]s of executions: what lies below the previous
    checkpoint boundary is released. Read-only. *)
val retained_history : t -> int * int

(** Install the checkpoint matching an application-level state transfer;
    clears the pending-transfer flag. *)
val install_app_checkpoint :
  t ->
  next_exec_pp:int ->
  exec_seq:int ->
  cursor:int array ->
  client_seqs:(string * int) list ->
  unit
