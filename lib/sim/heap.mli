(** Array-backed binary min-heap keyed by float, with stable (insertion
    order) tie-breaking so that the simulation's event delivery order is
    deterministic. *)

type 'a t

(** [create ?capacity ()] pre-sizes the backing array for [capacity]
    entries (applied lazily on first push; growth doubles beyond it).
    Raises [Invalid_argument] when [capacity < 1]. *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

(** Current allocated capacity of the backing array (0 before the first
    push). *)
val capacity : 'a t -> int

(** [push t ~key v] inserts [v] with priority [key]. *)
val push : 'a t -> key:float -> 'a -> unit

(** [peek t] returns the minimum entry without removing it. *)
val peek : 'a t -> (float * 'a) option

(** [pop t] removes and returns the minimum entry. *)
val pop : 'a t -> (float * 'a) option
