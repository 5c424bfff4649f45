(** Durable state for one SCADA master / Prime replica pair: a
    write-ahead log of executed updates plus periodic authenticated
    checkpoints on the replica's simulated device, with local (disk
    intact) and peer (f + 1 verified checkpoint) recovery paths. The
    checkpoint is the only form in which state moves between masters. *)

type t

(** Creates the WAL on [media] (reopening any surviving segments) and
    registers observers on [replica] that log every update, mark every
    settled batch end, and checkpoint where the replica says to (the
    first settled batch end in each [config.checkpoint_interval]
    window). *)
val create :
  keystore:Crypto.Signature.keystore ->
  keypair:Crypto.Signature.keypair ->
  config:Prime.Config.t ->
  replica:Prime.Replica.t ->
  state:State.t ->
  media:Store.Media.t ->
  t

val media : t -> Store.Media.t

val wal : t -> Store.Wal.t

val counters : t -> Sim.Stats.Counter.t

(** Most recent checkpoint taken or adopted this incarnation. *)
val latest_checkpoint : t -> Store.Checkpoint.t option

(** Bytes of checkpoint payload adopted from peers. *)
val transfer_bytes : t -> int

(** The checkpoint a peer's state-transfer request is answered with:
    {!latest_checkpoint} if there is one, else one built from the
    current state exactly as the periodic checkpoint is, signed but not
    persisted (a run too young to have checkpointed). *)
val transfer_checkpoint : t -> Store.Checkpoint.t

(** Disk-intact recovery: load the best verified checkpoint slot, replay
    the WAL suffix, and fast-forward the replica. Returns [false] when
    the device holds nothing durable to install (fresh or wiped disk),
    or when the surviving WAL suffix is not contiguous with the loaded
    checkpoint (e.g. the newest slot was corrupted and the older slot's
    covering log prefix was already collected) — the caller then rejoins
    through the f + 1-voted peer transfer instead. *)
val local_recover : t -> bool

(** Adopt a peer checkpoint that won f + 1 matching-root votes: bind its
    blob to the voted app root, load its application state, fast-forward
    the replica, restart the local log from that point and persist the
    checkpoint. *)
val install_from_peer : t -> Store.Checkpoint.t -> (unit, string) result

(** Power loss: the device drops its unsynced tails. *)
val on_crash : t -> unit

(** Destroy the device contents (breach recovery / clean restart). *)
val wipe_disk : t -> unit
