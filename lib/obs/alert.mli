(** Edge-triggered alert engine over health probes and flight events.

    Sample rules fire once on the false->true edge of a condition over a
    probe sample and re-arm when it clears; event rules fire when enough
    flight events of the watched kinds land inside a sliding window,
    subject to a cooldown. Alarms are logged and echoed into the flight
    recorder (subsystem ["alert"], severity [Alarm]); all inputs are
    deterministic, so same-seed campaigns alarm identically. *)

type alarm = { al_time : float; al_rule : string; al_detail : string }

(** A full probe sample, as returned by [Probe.sample]. *)
type sample = (string * Probe.snapshot) list

type sample_rule

type event_rule

(** [sample_rule ~name check]: [check] returns [Some detail] while the
    condition holds; an alarm fires only on the edge. *)
val sample_rule : name:string -> (sample -> string option) -> sample_rule

(** [event_rule ~name ~kinds ()] alarms when [threshold] (default 1)
    events whose kind is in [kinds] arrive within 1 s, at most once per
    5 s. *)
val event_rule : name:string -> kinds:string list -> ?threshold:int -> unit -> event_rule

(** Durable store more than 2 checkpoint windows behind its replica's
    execution frontier. Each builtin rule is a fresh rule with its own
    edge (and, for drops, history) state, so two engines never share
    it. *)
val checkpoint_lag_rule : unit -> sample_rule

(** Total Spines drops grew by at least 5 within the last 20
    evaluations. *)
val sustained_drops_rule : unit -> sample_rule

(** Running replicas' execution frontiers span more than 5 sequence
    numbers. *)
val divergence_rule : unit -> sample_rule

(** Any Prime replica reports [running = 0]. *)
val replica_down_rule : unit -> sample_rule

val default_sample_rules : unit -> sample_rule list

(** Malformed frames, leader suspicion, store faults (replay gap /
    corrupt WAL / bad checkpoint / disk wipe), and chi-square bad-data
    flags ([fdia.flagged]). *)
val default_event_rules : unit -> event_rule list

type t

(** Fresh engine; default rules unless overridden. When [flight] is
    given the engine subscribes to its event stream (driving event
    rules) and echoes alarms back into it. *)
val create :
  ?sample_rules:sample_rule list ->
  ?event_rules:event_rule list ->
  ?flight:Flight.t ->
  unit ->
  t

(** Feed one flight event through the event rules (done automatically
    for a subscribed recorder). *)
val observe_event : t -> Flight.event -> unit

(** Evaluate every sample rule against a probe sample taken at [time]. *)
val evaluate : t -> time:float -> sample -> unit

(** Alarms raised so far, oldest first. *)
val alarms : t -> alarm list

val alarm_count : t -> int

(** Earliest alarm at or after [time] — the detection-latency anchor. *)
val first_alarm_after : t -> float -> alarm option

val alarm_to_json : alarm -> Json.t
