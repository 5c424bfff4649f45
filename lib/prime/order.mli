(** Prime ordering state: pre-prepare/prepare/commit instances keyed by
    sequence, votes that arrived before their pre-prepare, deterministic
    execution of newly-eligible preordered updates, and prepared
    certificates for view changes.

    Executed instances are kept (their commit authenticators form the
    certificates served to laggards) until {!release_below} drops them;
    the replica calls it at checkpoint boundaries, so an instance lives
    one to two [checkpoint_interval]s of executions past its own. *)

type t

val create : Config.t -> my_id:int -> t

(** Highest pre-prepare sequence seen (ordered or not). *)
val max_seen_pp : t -> int

(** Lowest pre-prepare sequence not yet executed. *)
val next_exec_pp : t -> int

(** Global execution counter. *)
val exec_seq : t -> int

(** Copy of the per-origin executed-through cursor. *)
val exec_cursor : t -> int array

(** [origin]'s entry of the cursor, without copying it. *)
val executed_through : t -> origin:int -> int

(** Number of (pp_seq, voter) keys holding early votes
    (see {!add_prepare}). *)
val early_votes : t -> int

(** Whether [pp_seq] lies below the low-water mark: its instance was
    executed and released, and no message for it may create state. *)
val released : t -> int -> bool

(** Release every instance below [pp_seq] (capped at {!next_exec_pp}) and
    raise the low-water mark to it. *)
val release_below : t -> int -> unit

(** Executed instances still held (below {!next_exec_pp}). *)
val retained_executed : t -> int

(** Accept a pre-prepare at time [now]. A higher view overrides
    (view-change re-proposal) and resets the quorum counters. Early votes
    (see {!add_prepare}) for the accepted view and digest are counted at
    once, and dropped with every other early vote of this view or older;
    if their commits already form a quorum the instance is ordered on
    return ({!is_ordered}). *)
val accept_pre_prepare :
  t ->
  now:float ->
  view:int ->
  pp_seq:int ->
  matrix:Msg.matrix ->
  pp_sig:Crypto.Signature.t ->
  [ `Accept of Crypto.Sha256.digest
  | `Already_ordered
  | `Conflicting_leader
  | `Duplicate
  | `Stale ]

(** Oldest unordered instances whose pre-prepare was accepted at or
    before [accepted_by], for ordering-message retransmission: (pp_seq,
    view, matrix, digest, leader authenticator, prepared?). At most
    [limit] instances, from the execution cursor up. *)
val stalled_instances :
  t ->
  accepted_by:float ->
  limit:int ->
  (int * int * Msg.matrix * Crypto.Sha256.digest * Crypto.Signature.t * bool) list

(** Count a verified prepare; [true] when the instance just became
    prepared (a full quorum of distinct prepares — every replica, leader
    included, broadcasts one).

    A vote whose pre-prepare is not accepted yet (none, or only one from
    an older view) is an {e early vote}: it is kept, one prepare and one
    commit per (pp_seq, voter), if the instance is not executed and lies
    no higher than {!max_seen_pp} + 1, and counted by
    {!accept_pre_prepare} only if its view and digest match. A vote
    outside that window creates no state; the entries of an instance
    are deleted once it executes. A voter outside 0 <= rep < n is never
    counted and creates no state, on any path. *)
val add_prepare :
  t -> rep:int -> view:int -> pp_seq:int -> digest:Crypto.Sha256.digest -> bool

(** Count a verified commit and retain its authenticator for
    certificate serving; [true] when the instance just became ordered.
    The authenticator is retained even for an already-ordered instance.
    Early commits are kept like early prepares ({!add_prepare}). *)
val add_commit :
  t ->
  rep:int ->
  view:int ->
  pp_seq:int ->
  digest:Crypto.Sha256.digest ->
  Crypto.Signature.t ->
  bool

(** Self-certifying commit certificate for an ordered instance:
    (view, matrix, leader authenticator, quorum of commit
    authenticators in ascending voter order), once enough authenticators
    are retained. *)
val ordered_cert :
  t -> int -> (int * Msg.matrix * Crypto.Signature.t * (int * Crypto.Signature.t) list) option

(** Install a verified commit certificate; [true] when the instance was
    not already ordered. Commits from outside 0 <= rep < n are skipped. *)
val install_cert :
  t ->
  pp_seq:int ->
  view:int ->
  matrix:Msg.matrix ->
  digest:Crypto.Sha256.digest ->
  pp_sig:Crypto.Signature.t ->
  commits:(int * Crypto.Signature.t) list ->
  bool

(** Highest ordered pp_seq (at or above the execution cursor). *)
val max_ordered_seen : t -> int

val is_ordered : t -> int -> bool

(** Whether a pre-prepare (or a commit certificate) for [pp_seq] was
    accepted here and is still held. *)
val has_pre_prepare : t -> int -> bool

type missing = { miss_origin : int; miss_po_seq : int }

(** Execute ordered instances in sequence. Returns executed updates as
    (exec_seq, origin, po_seq, update) and the missing bodies blocking
    further progress (to be fetched via reconciliation). *)
val try_execute :
  t ->
  update_for:(origin:int -> po_seq:int -> Msg.Update.t option) ->
  floor_for:(origin:int -> int) ->
  (int * int * int * Msg.Update.t) list * missing list

(** Prepared-but-unexecuted certificates for view-change reports. *)
val prepared_certs : t -> Msg.prepared_cert list

(** Highest executed pre-prepare sequence. *)
val max_executed : t -> int

(** Fast-forward the execution cursors (catchup / app state transfer). *)
val install_checkpoint : t -> next_exec_pp:int -> exec_seq:int -> cursor:int array -> unit
