(** Sliding-window (origin, seq) deduplication with bounded memory.

    Remembers at most [span] recent sequence numbers per origin; older
    ones are evicted and treated as stale duplicates if replayed. *)

type t

val create : ?span:int -> unit -> t

(** [mark t ~origin ~seq] returns [true] iff this (origin, seq) pair is a
    fresh sighting; duplicates and sequences below the eviction horizon
    return [false]. *)
val mark : t -> origin:int -> seq:int -> bool

(** [seen t ~origin ~seq] is [true] iff {!mark} would call this pair a
    duplicate right now. Read-only: it changes no state and creates none
    for an unknown origin. *)
val seen : t -> origin:int -> seq:int -> bool

(** Total entries evicted so far across all origins. *)
val evictions : t -> int

(** Entries currently remembered across all origins. *)
val retained : t -> int
