(** Bounded per-neighbor egress queue: priority bands drained
    highest-first, round-robin across origins within a band (source
    fairness), overflow dropping lowest-priority traffic first.

    Pure data structure — the node drives flushes off the sim clock and
    applies fault injection at drain time. All ordering (serve order,
    eviction victims) is canonical so same-seed chaos runs replay
    byte-identically. Memory is O(capacity) whatever mix of origins and
    priorities passes through: once more than [capacity] origins or
    priority bands sit empty, they are forgotten, and a forgotten band's
    round-robin cursor starts again from the lowest origin. *)

type 'a t

type 'a outcome =
  | Enqueued
  | Rejected  (** queue full and the arrival itself was lowest-priority *)
  | Evicted of 'a
      (** queue full; this lower-priority message was dropped to make room *)

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Total messages dropped by the overflow policy ([Rejected] arrivals
    plus [Evicted] victims). *)
val drops : 'a t -> int

(** [enqueue t ~prio ~origin msg] admits [msg] unless the queue is at
    capacity; then the lowest-priority message in the queue goes — the
    arrival itself if nothing queued is strictly lower-priority,
    otherwise the oldest message of the most-backlogged origin in the
    lowest band (ties toward the higher origin id). Allocates only the
    first time an origin or priority band is seen. *)
val enqueue : 'a t -> prio:int -> origin:int -> 'a -> 'a outcome

(** Dequeues everything in send order: priority bands highest-first;
    within a band, each step serves the first non-empty origin above the
    band's cursor (wrapping around), the cursor persisting across
    drains. Allocates nothing but the returned list. *)
val drain : 'a t -> 'a list

(** Empties the queue as if freshly created; {!drops} keeps counting. *)
val clear : 'a t -> unit
