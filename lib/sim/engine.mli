(** Discrete-event simulation engine with virtual time.

    All subsystems (network, protocols, attackers, measurement devices)
    run as events on one engine, making whole-system runs deterministic
    and fast: simulated days complete in real seconds. *)

type t

type event_id

type timer

(** [create ?seed ?hint ()] makes an engine at time 0 with a
    deterministic RNG. [hint] pre-sizes the event queue for the expected
    number of in-flight events, avoiding doubling churn in long runs.
    Events pop in exactly (time, schedule-order) order, so same-seed runs
    are byte-identical. *)
val create : ?seed:int64 -> ?hint:int -> unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** The engine's root RNG. Prefer [split_rng] for per-subsystem streams. *)
val rng : t -> Rng.t

(** A fresh RNG stream independent of other consumers. *)
val split_rng : t -> Rng.t

(** Number of events executed so far. *)
val executed_events : t -> int

(** [schedule t ~delay f] runs [f] after [delay] seconds of virtual time.
    Raises [Invalid_argument] on negative delay. *)
val schedule : t -> delay:float -> (unit -> unit) -> event_id

(** [schedule_at t ~time f] runs [f] at absolute virtual [time]. Raises
    [Invalid_argument] if [time] is in the past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> event_id

(** [cancel t id] prevents a scheduled event from running. Idempotent;
    cancelling an event that already executed is a no-op and leaves no
    residual bookkeeping. *)
val cancel : t -> event_id -> unit

(** Number of cancelled-but-not-yet-popped events (bookkeeping size).
    Exposed so tests can assert cancellation does not leak. *)
val cancelled_backlog : t -> int

(** Number of events still queued (including lazily-cancelled ones). *)
val pending : t -> int

(** Allocated capacity of the event queue's backing array (0 before any
    event is scheduled; at least the creation [hint] afterwards). *)
val queue_capacity : t -> int

(** [step t] executes the next event. Returns [false] if the queue was
    empty. *)
val step : t -> bool

(** [run ?until t] executes events in time order until the queue is
    empty, the horizon [until] is passed, or [stop] is called. With
    [until], the clock is advanced to the horizon even if the queue
    empties early. *)
val run : ?until:float -> t -> unit

(** Request that [run] return after the current event. *)
val stop : t -> unit

(** [every t ~period f] runs [f] every [period] seconds, starting one
    period from now. It draws no RNG. *)
val every : t -> period:float -> (unit -> unit) -> timer

(** Stop a recurring timer. Idempotent. *)
val cancel_timer : t -> timer -> unit
