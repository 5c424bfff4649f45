(** Hierarchical timer wheel: the engine's event queue.

    O(1) schedule/cancel for the dominant short-horizon timers, with a
    small overflow heap for far-future events. Events pop in exactly
    (time, schedule-order) order — the same tie-break as {!Heap} keyed
    by insertion sequence — so same-seed simulation runs are
    byte-identical. Event cells live in a slab (parallel arrays threaded
    by an intrusive free list), so a steady schedule→execute cycle
    touches no allocator once the slab has grown to the working-set
    size. *)

type t

(** [create ?hint ()] makes an empty wheel. The cell slab is lazily
    allocated at [hint] cells on first use, like {!Heap}. *)
val create : ?hint:int -> unit -> t

(** Events currently queued (including lazily-cancelled ones). *)
val length : t -> int

(** Cancelled-but-not-yet-popped events. *)
val cancelled_backlog : t -> int

(** Allocated slab capacity in cells (0 before any event is scheduled). *)
val capacity : t -> int

(** [schedule t ~time thunk] enqueues [thunk] at absolute [time] and
    returns a packed event id ([stamp lsl 24 lor cell]) for [cancel].
    Time-order across pops is only guaranteed for times at or after the
    latest popped event (the engine enforces this). *)
val schedule : t -> time:float -> (unit -> unit) -> int

(** Lazy cancellation: the event stays queued and is reported as
    [Cancelled] when popped. Ids of already-popped events are recognised
    by their stamp and ignored, so stale cancels of a recycled cell are
    harmless no-ops. *)
val cancel : t -> int -> unit

(** Earliest queued event time, if any. *)
val peek : t -> float option

type popped =
  | Empty
  | Cancelled of float  (** a cancelled event's slot; clock still advances *)
  | Event of float * (unit -> unit)

(** Remove and return the earliest event by (time, schedule-order). *)
val pop : t -> popped
