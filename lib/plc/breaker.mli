(** Circuit breaker: commanded vs actual position with mechanical
    actuation delay. [force] models a physical flip (the Section V
    measurement device). *)

type position = Open | Closed

type t

(** Seconds from a coil command to the contacts moving (0.08). *)
val actuation_delay : float

(** A breaker that starts closed. *)
val create : engine:Sim.Engine.t -> string -> t

val name : t -> string

val actual : t -> position

val commanded : t -> position

(** Completed position changes so far. *)
val actuations : t -> int

val is_closed : t -> bool

(** Hook fired when the actual position changes. *)
val on_change : t -> (t -> unit) -> unit

(** Drive toward [position] after the actuation delay; a newer command
    supersedes an in-flight one. *)
val command : t -> position -> unit

(** Immediate physical flip (bypasses the command path). *)
val force : t -> position -> unit

val toggle_force : t -> unit

val position_to_string : position -> string

val pp : Format.formatter -> t -> unit
