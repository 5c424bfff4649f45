(** SCADA historian (the testbed's PI server): an append-only in-memory
    archive over a growable array, indexed by time. Unlike the masters'
    active state, lost history is unrecoverable — the Section III-A
    asymmetry. *)

type event = { time : float; source : string; kind : string; detail : string }

type t

val create : unit -> t

(** Raises [Invalid_argument] when [time] is below the last recorded
    time: every caller stamps events with the simulation clock, so the
    archive stays sorted. *)
val record : t -> time:float -> source:string -> kind:string -> detail:string -> unit

(** All events in recording order. *)
val events : t -> event list

val length : t -> int

(** Events with [time >= t], in recording order, by binary search. *)
val since : t -> float -> event list

val by_kind : t -> string -> event list

(** Assumption breach: everything archived is gone. *)
val wipe : t -> unit

val lost_events : t -> int
