(** Electrical co-simulation bound to the shared {!Sim.Engine}: mirrors
    physical breaker positions, re-solves the DC flow on every relevant
    change, and trips thermally overloaded lines after a deterministic
    inverse-time delay — producing genuine, staggered cascading
    failures. Never actuates breakers: trips are electrical. *)

type t

(** The initial solution assumes every breaker closed; bind or set
    breakers to diverge. Flight events ([line.trip], [island.shed])
    are recorded into [flight] when given and recording. *)
val create : ?flight:Obs.Flight.t -> engine:Sim.Engine.t -> Model.t -> t

val model : t -> Model.t

(** Mirror a live breaker: seeds the current position and hooks
    [on_change]. *)
val bind_breaker : t -> Plc.Breaker.t -> unit

(** Standalone co-simulation: set a breaker position directly. *)
val set_breaker : t -> string -> closed:bool -> unit

val breaker_closed : t -> string -> bool

val solution : t -> Model.solution

val frequency_hz : t -> float

val served_mw : t -> float

val shed_mw : t -> float

val total_demand_mw : t -> float

val tripped_lines : t -> int

(** DC solves performed so far. *)
val solves : t -> int

(** Electrical trips, oldest first: (time, line name). *)
val trip_log : t -> (float * string) list

(** Load-shed events, oldest first: (time, load name, MW). *)
val shed_log : t -> (float * string * float) list

(** Current scaled readings for one PLC's measurement points, in
    {!Model.points_for} order. *)
val analogs_for : t -> plc:string -> (string * int) list

val analog_names_for : t -> plc:string -> string list

val all_analogs : t -> (string * int) list

(** Lines overloaded continuously past the worst-case trip delay plus
    [grace] (protection failures): (line name, overloaded since). *)
val stuck_overloads : t -> grace:float -> (string * float) list

(** Register the [power.grid] probe
    (frequency_hz/served_mw/shed_mw/tripped_lines) into a registry. *)
val register_probe : t -> Obs.Probe.t -> unit
