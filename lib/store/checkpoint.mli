(** Authenticated replica checkpoints: a snapshot of the replication
    execution point (exec seq, next pre-prepare, per-origin cursors,
    client dedup keys) plus the serialized SCADA application state,
    identified by a [Crypto.Merkle] root over its content and signed by
    the snapshotting replica. Peers accept a transferred checkpoint only
    once f + 1 replicas present the same root.

    The application state is covered through [ck_app_root] — the state's
    own incremental Merkle root — so snapshotting costs O(1) hashing in
    the state size. The [ck_app_state] blob itself is not covered by
    {!verify}; install paths bind it to [ck_app_root] with
    [Scada.State.root_of_blob] before adopting it. *)

type t = {
  ck_replica : int;
  ck_exec_seq : int;
  ck_next_exec_pp : int;
  ck_cursor : int array;
  ck_client_seqs : (string * int) list;  (** sorted canonical *)
  ck_app_state : string;
  ck_app_root : Crypto.Sha256.digest;  (** the state's digest root at the snapshot *)
  ck_root : Crypto.Sha256.digest;
  ck_auth : Crypto.Signature.t;
}

(** Canonical sort for client dedup keys (applied by {!make}). *)
val sort_client_seqs : (string * int) list -> (string * int) list

(** Merkle root over the checkpoint content. The same logical state
    always produces the same root, whichever replica snapshots it. *)
val root_of :
  exec_seq:int ->
  next_exec_pp:int ->
  cursor:int array ->
  client_seqs:(string * int) list ->
  app_root:Crypto.Sha256.digest ->
  Crypto.Sha256.digest

(** The domain-separated byte string the signature covers. *)
val root_binding : Crypto.Sha256.digest -> string

val make :
  keypair:Crypto.Signature.keypair ->
  replica:int ->
  next_exec_pp:int ->
  exec_seq:int ->
  cursor:int array ->
  client_seqs:(string * int) list ->
  app_state:string ->
  app_root:Crypto.Sha256.digest ->
  t

(** Recompute the root from the covered content and check the signature
    binds it to [signer]. Does not inspect [ck_app_state] — see the
    module note on blob binding. *)
val verify : keystore:Crypto.Signature.keystore -> signer:Crypto.Signature.identity -> t -> bool

(** Canonical byte encoding (disk format and transfer-size model). *)
val encode : t -> string

(** [None] on truncated, malformed or over-long input: every accepted
    string is exactly the {!encode} of the result. *)
val decode : string -> t option

val size : t -> int
