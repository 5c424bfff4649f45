(** Telemetry export: the Section-V reaction-time decomposition and the
    summary helper behind the [--json] machine-readable bench output. *)

(** A [Sim.Stats.Summary] as a JSON object with [count] and, when
    non-empty, [mean]/[stddev]/[min]/[p50]/[p99]/[max]. *)
val summary_to_json : Sim.Stats.Summary.t -> Json.t

(** The Section-V reaction-time decomposition as
    [(label, from_stage, to_stage)]; consecutive stages telescope, so
    their sums equal flip→repaint exactly. *)
val reaction_stages : (string * string * string) list

val end_to_end_stage : string * string * string

(** [reaction_stages] plus the end-to-end pair, evaluated over a
    registry's completed pipeline instances. *)
val reaction_breakdown : Registry.t -> (string * Sim.Stats.Summary.t) list
