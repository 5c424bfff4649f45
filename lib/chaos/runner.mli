(** Seeded chaos scenario runner: full deployment + SCADA load + fault
    schedule + continuously-attached invariant checker. Runs replay
    byte-identically from their seed ([result_to_json] is stable). *)

type result = {
  seed : int;
  duration : float;
  n_replicas : int;
  schedule : (float * string) list;
  commands_issued : int;
  final_exec_seq : int;
  view_transitions : (float * int) list; (* (offset into chaos window, new view) *)
  view_change_latencies : float list; (* leader fault -> first view transition *)
  recovery_latencies : float list; (* clean restart -> rejoined and re-based *)
  executions_checked : int;
  actuations_checked : int;
  link_dropped : int;
  link_duplicated : int;
  link_delayed : int;
  dedup_evictions : int;
  violations : Invariant.violation list;
  alarms : Obs.Alert.alarm list; (* raised by the alert engine, oldest first *)
  first_fault_at : float option; (* absolute sim time of the first injection *)
  detection_latency : float option; (* first fault -> first alarm; None = never *)
  flight_events : int; (* flight events recorded over the run *)
  flight_jsonl : string option; (* full flight dump (observing runs only) *)
  flight_dump_path : string option; (* written on the first violation *)
}

val default_scenario : Plc.Power.scenario

(** [run ~seed ()] executes a chaos scenario. Without [schedule], a
    mixed crash+partition+lossy+leader schedule is generated from the
    seed. [liveness_bound] parameterises the invariant checker, which
    enforces liveness from 10 s after the fault burden drops back to at
    most f replicas.

    [observe] (default true) turns on the flight recorder, health-probe
    sampler and alert engine for the run (process-global enablement is
    saved and restored); observation is purely passive, so [observe:
    false] leaves the schedule bit-identical. [flight_dump] overrides
    the path the flight JSONL is written to when an invariant trips
    (default: [spire-flight-seed<seed>.jsonl] in the temp directory).

    [fault_class] restricts the generated schedule (no explicit
    [schedule] given) to repeated windows of one fault class — the soak
    campaigns run hundreds of seeds of [Fault.Lossy] this way. *)
val run :
  ?config:Prime.Config.t ->
  ?scenario:Plc.Power.scenario ->
  ?duration:float ->
  ?load_period:float ->
  ?liveness_bound:float ->
  ?schedule:Fault.schedule ->
  ?observe:bool ->
  ?flight_dump:string ->
  ?fault_class:Fault.fault_class ->
  seed:int ->
  unit ->
  result

val result_to_json : result -> Obs.Json.t
