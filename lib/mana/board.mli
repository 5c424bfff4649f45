(** Situational awareness board (Section II): aggregates the detectors of
    the monitored networks into per-network and overall conditions with a
    text rendering for the engineers' display. *)

type t

type condition = Normal | Elevated | Critical

(** Alerts of the last 60 s raise a network's condition. *)
val create : engine:Sim.Engine.t -> unit -> t

val add_network : t -> name:string -> Detector.t -> unit

(** Worst condition across the monitored networks, based on alert
    recency. *)
val overall : t -> condition

val condition_to_string : condition -> string

val render : t -> string
