(** Append-only segmented write-ahead log of CRC-framed records over
    {!Media}, with rotation, batched fsync, and a total replay that
    truncates at the first invalid record instead of crashing. *)

type t

(** Bytes per segment before rotation. *)
val segment_size : int

(** Appends between durability points: a crash loses fewer records than
    this. *)
val fsync_every : int

(** [create media] opens (or reopens) the log on [media], continuing
    after any surviving segments. *)
val create : Media.t -> t

val counters : t -> Sim.Stats.Counter.t

val append : t -> string -> unit

(** Force a durability point for everything appended so far. *)
val sync : t -> unit

(** [replay t ~f] applies [f] to every valid record in order and returns
    the count. On the first invalid record the log is physically cut back
    to its valid prefix (counting [wal.corrupt_record] /
    [store.corrupt_record]) and replay stops. *)
val replay : t -> f:(string -> unit) -> int

(** Index of the segment currently being appended to. *)
val current_segment : t -> int

(** Drop whole segments below [segment]; returns how many were dropped. *)
val gc_before : t -> segment:int -> int

(** Delete all segments and start over at segment 0. *)
val reset : t -> unit

val records_appended : t -> int

(** Records covered by a durability point (fsync or rotation). *)
val records_synced : t -> int

val bytes_appended : t -> int

val segment_count : t -> int

(** CRC-32 (IEEE) of a byte string — exposed for tests. *)
val crc32 : string -> int
