(** Bounded per-neighbor egress queue: round-robin across origins
    (source fairness), refusing arrivals once full.

    Pure data structure — the node drives flushes off the sim clock and
    applies fault injection at drain time. The serve order is canonical
    so same-seed chaos runs replay byte-identically. Memory is
    O(capacity) whatever mix of origins passes through: once more than
    [capacity] origins sit empty, they are forgotten. *)

type 'a t

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

val length : 'a t -> int

(** [enqueue t ~origin msg] admits [msg] and returns [true] unless the
    queue is at capacity; then it returns [false] and queues nothing.
    Allocates only the first time an origin is seen. *)
val enqueue : 'a t -> origin:int -> 'a -> bool

(** Dequeues everything in send order: each step serves the first
    non-empty origin above the cursor (wrapping around), the cursor
    persisting across drains. Allocates nothing but the returned list. *)
val drain : 'a t -> 'a list

(** Empties the queue as if freshly created; the cursor starts again
    from the lowest origin. *)
val clear : 'a t -> unit
