(* Seeded chaos scenario runner.

   Builds a full Spire deployment, drives SCADA load through an HMI via
   [Spire.Scenario_driver], applies a fault schedule through [Injector],
   and keeps [Invariant] attached the whole time. Everything — network
   jitter, fault parameters, loss decisions — derives from one integer
   seed, so a run (and any violation it finds) replays byte-identically:
   [result_to_json] of two runs with the same seed is the same string. *)

type result = {
  seed : int;
  duration : float;
  n_replicas : int;
  schedule : (float * string) list; (* offsets within the chaos window *)
  commands_issued : int;
  final_exec_seq : int;
  view_transitions : (float * int) list;
  view_change_latencies : float list;
  recovery_latencies : float list;
  executions_checked : int;
  actuations_checked : int;
  link_dropped : int;
  link_duplicated : int;
  link_delayed : int;
  dedup_evictions : int;
  violations : Invariant.violation list;
  (* Observability: alarms raised by the alert engine, detection latency
     from the first injected fault to the first alarm at or after it, and
     the flight-recorder narrative of the run. *)
  alarms : Obs.Alert.alarm list;
  first_fault_at : float option; (* absolute sim time of the first injection *)
  detection_latency : float option; (* seconds; None = never alarmed *)
  flight_events : int;
  flight_jsonl : string option; (* full JSONL dump (observing runs only) *)
  flight_dump_path : string option; (* written on the first violation *)
}

let default_scenario =
  {
    Plc.Power.scenario_name = "chaos-mini";
    plcs =
      [
        {
          Plc.Power.plc_name = "MAIN";
          breaker_names = [ "B10-1"; "B57"; "B56" ];
          physical = true;
        };
      ];
    feeds = [ { Plc.Power.load_name = "Building-A"; path = [ "B10-1"; "B57" ] } ];
  }

let warmup = 5.0

let max_exec deployment =
  Array.fold_left
    (fun acc r -> max acc (Prime.Replica.exec_seq r.Spire.Deployment.r_replica))
    0
    (Spire.Deployment.replicas deployment)

let sum_node_counter deployment key =
  Array.fold_left
    (fun acc r ->
      acc
      + Sim.Stats.Counter.get (Spines.Node.counters r.Spire.Deployment.r_internal_node) key
      + Sim.Stats.Counter.get (Spines.Node.counters r.Spire.Deployment.r_external_node) key)
    0
    (Spire.Deployment.replicas deployment)

let sum_dedup_evictions deployment =
  Array.fold_left
    (fun acc r ->
      acc
      + Spines.Node.dedup_evictions r.Spire.Deployment.r_internal_node
      + Spines.Node.dedup_evictions r.Spire.Deployment.r_external_node)
    0
    (Spire.Deployment.replicas deployment)

let run ?config ?(scenario = default_scenario) ?(duration = 120.0) ?(load_period = 1.0)
    ?(liveness_bound = 20.0) ?schedule
    ?(observe = true) ?flight_dump ?fault_class ~seed () =
  let config = match config with Some c -> c | None -> Prime.Config.power_plant () in
  (* Observation is opt-in per run and restored afterwards: the default
     recorder and probe registry are process globals shared with whatever
     else the process does. Enabling happens BEFORE the deployment is
     built so subsystem constructors register their probes; everything
     recorded is a deterministic function of the simulation, and a
     disabled run draws no RNG and schedules nothing extra, so observe:
     false leaves the schedule bit-identical to a build without obs. *)
  let prev_flight = Obs.Flight.enabled Obs.Flight.default in
  let prev_probe = Obs.Probe.enabled Obs.Probe.default in
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.set_enabled Obs.Flight.default prev_flight;
      Obs.Probe.set_enabled Obs.Probe.default prev_probe)
  @@ fun () ->
  if observe then begin
    Obs.Flight.reset Obs.Flight.default;
    Obs.Flight.set_enabled Obs.Flight.default true;
    Obs.Probe.reset Obs.Probe.default;
    Obs.Probe.set_enabled Obs.Probe.default true
  end;
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  if observe then
    Obs.Flight.set_clock Obs.Flight.default (fun () -> Sim.Engine.now engine);
  let alert =
    if observe then Some (Obs.Alert.create ~flight:Obs.Flight.default ()) else None
  in
  let trace = Sim.Trace.create () in
  let deployment = Spire.Deployment.create ~engine ~trace ~config scenario in
  Sim.Engine.run ~until:warmup engine;
  let chaos_rng = Sim.Rng.create (Int64.of_int (seed * 2 + 1)) in
  let schedule =
    match (schedule, fault_class) with
    | Some s, _ -> Fault.sort s
    | None, Some cls ->
        Fault.of_class ~rng:(Sim.Rng.split chaos_rng) ~n:config.Prime.Config.n ~duration cls
    | None, None ->
        Fault.mixed ~rng:(Sim.Rng.split chaos_rng) ~n:config.Prime.Config.n ~duration ()
  in
  let injector = Injector.create ~rng:(Sim.Rng.split chaos_rng) deployment in
  (* Health policy: liveness is only enforced while at most f replicas
     are faulty (crashed, isolated by partition, or a misbehaving
     leader), no heavy lossy link is active, and a grace period has
     passed since the system last healed from a degraded state. *)
  let degraded () =
    Injector.crashed_count injector
    + Injector.isolated_count injector
    + (if Injector.leader_fault_active injector then 1 else 0)
    > config.Prime.Config.f
    || Injector.max_active_drop injector >= 0.5
  in
  let heal_grace = 10.0 (* settle time granted after the system heals *) in
  let was_degraded = ref false in
  let calm_since = ref (-.heal_grace) in
  let update_health () =
    let d = degraded () in
    if !was_degraded && not d then calm_since := Sim.Engine.now engine;
    was_degraded := d
  in
  let is_healthy () =
    (not !was_degraded) && Sim.Engine.now engine -. !calm_since >= heal_grace
  in
  let invariant =
    Invariant.create ~liveness_bound ~engine ~is_healthy ()
  in
  Invariant.attach invariant deployment;
  (* First violation → dump the flight narrative immediately, so the
     JSONL holds exactly the events leading up to the verdict. *)
  let dump_path = ref None in
  if observe then
    Invariant.set_on_violation invariant (fun _v ->
        if !dump_path = None then begin
          let path =
            match flight_dump with
            | Some p -> p
            | None ->
                Filename.concat
                  (Filename.get_temp_dir_name ())
                  (Printf.sprintf "spire-flight-seed%d.jsonl" seed)
          in
          Obs.Flight.dump_file Obs.Flight.default ~path;
          dump_path := Some path
        end);
  (* Apply the schedule; leader-disabling events arm a view-change
     latency measurement consumed by the view poller below. *)
  let pending_leader_fault = ref None in
  let view_transitions = ref [] in
  let view_change_latencies = ref [] in
  List.iter
    (fun { Fault.at; action } ->
      ignore
        (Sim.Engine.schedule_at engine ~time:(warmup +. at) (fun () ->
             let now = Sim.Engine.now engine in
             Sim.Trace.record trace ~time:now ~category:"chaos" "inject: %s"
               (Fault.describe action);
             (match action with
             | Fault.Leader_silent | Fault.Leader_equivocate -> pending_leader_fault := Some now
             | Fault.Crash_replica i when i = Spire.Deployment.current_leader deployment ->
                 pending_leader_fault := Some now
             | _ -> ());
             Injector.apply injector action;
             (match action with
             | Fault.Restart_replica i | Fault.Restart_replica_intact i ->
                 Invariant.expect_recovery invariant ~replica:i
             | _ -> ());
             update_health ())))
    schedule;
  let last_view = ref (Spire.Deployment.max_view deployment) in
  let view_poll =
    Sim.Engine.every engine ~period:0.05 (fun () ->
        let v = Spire.Deployment.max_view deployment in
        if v > !last_view then begin
          last_view := v;
          let now = Sim.Engine.now engine in
          view_transitions := (now -. warmup, v) :: !view_transitions;
          match !pending_leader_fault with
          | Some t0 ->
              view_change_latencies := (now -. t0) :: !view_change_latencies;
              pending_leader_fault := None
          | None -> ()
        end)
  in
  (* Health sampler: polls the probe registry and runs the alert rules.
     Purely passive — [Sim.Engine.every] draws no RNG and the event queue
     breaks same-time ties by insertion order, so protocol events are
     never reordered by observation. *)
  let sampler =
    match alert with
    | Some a ->
        Some
          (Sim.Engine.every engine ~period:0.05 (fun () ->
               Obs.Alert.evaluate a ~time:(Sim.Engine.now engine)
                 (Obs.Probe.sample Obs.Probe.default)))
    | None -> None
  in
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:load_period;
  Sim.Engine.run ~until:(warmup +. duration) engine;
  Spire.Scenario_driver.stop driver;
  Sim.Engine.cancel_timer engine view_poll;
  (match sampler with Some s -> Sim.Engine.cancel_timer engine s | None -> ());
  Invariant.stop invariant;
  let first_fault_at =
    match schedule with [] -> None | { Fault.at; _ } :: _ -> Some (warmup +. at)
  in
  let alarms = match alert with Some a -> Obs.Alert.alarms a | None -> [] in
  let detection_latency =
    match (alert, first_fault_at) with
    | Some a, Some t0 ->
        Option.map
          (fun al -> al.Obs.Alert.al_time -. t0)
          (Obs.Alert.first_alarm_after a t0)
    | _ -> None
  in
  let flight_events = if observe then Obs.Flight.total Obs.Flight.default else 0 in
  let flight_jsonl = if observe then Some (Obs.Flight.to_jsonl Obs.Flight.default) else None in
  (* Leave the process globals clean for whoever runs next. *)
  if observe then begin
    Obs.Flight.reset Obs.Flight.default;
    Obs.Probe.reset Obs.Probe.default
  end;
  {
    seed;
    duration;
    n_replicas = config.Prime.Config.n;
    schedule = List.map (fun { Fault.at; action } -> (at, Fault.describe action)) schedule;
    commands_issued = Spire.Scenario_driver.commands_issued driver;
    final_exec_seq = max_exec deployment;
    view_transitions = List.rev !view_transitions;
    view_change_latencies = List.rev !view_change_latencies;
    recovery_latencies = Invariant.recovery_latencies invariant;
    executions_checked = Invariant.executions_checked invariant;
    actuations_checked = Invariant.actuations_checked invariant;
    link_dropped = sum_node_counter deployment "chaos.dropped";
    link_duplicated = sum_node_counter deployment "chaos.duplicated";
    link_delayed = sum_node_counter deployment "chaos.delayed";
    dedup_evictions = sum_dedup_evictions deployment;
    violations = Invariant.violations invariant;
    alarms;
    first_fault_at;
    detection_latency;
    flight_events;
    flight_jsonl;
    flight_dump_path = !dump_path;
  }

let summary_of latencies =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) latencies;
  s

let result_to_json r =
  let num n = Obs.Json.Num n in
  let latencies l = Obs.Json.List (List.map num l) in
  Obs.Json.Obj
    [
      ("seed", num (float_of_int r.seed));
      ("duration", num r.duration);
      ("n_replicas", num (float_of_int r.n_replicas));
      ( "schedule",
        Obs.Json.List
          (List.map
             (fun (at, desc) -> Obs.Json.Obj [ ("at", num at); ("action", Obs.Json.Str desc) ])
             r.schedule) );
      ("commands_issued", num (float_of_int r.commands_issued));
      ("final_exec_seq", num (float_of_int r.final_exec_seq));
      ( "view_transitions",
        Obs.Json.List
          (List.map
             (fun (at, v) -> Obs.Json.Obj [ ("at", num at); ("view", num (float_of_int v)) ])
             r.view_transitions) );
      ("view_change_latency", Obs.Export.summary_to_json (summary_of r.view_change_latencies));
      ("view_change_latencies", latencies r.view_change_latencies);
      ("recovery_latency", Obs.Export.summary_to_json (summary_of r.recovery_latencies));
      ("recovery_latencies", latencies r.recovery_latencies);
      ("executions_checked", num (float_of_int r.executions_checked));
      ("actuations_checked", num (float_of_int r.actuations_checked));
      ("link_dropped", num (float_of_int r.link_dropped));
      ("link_duplicated", num (float_of_int r.link_duplicated));
      ("link_delayed", num (float_of_int r.link_delayed));
      ("dedup_evictions", num (float_of_int r.dedup_evictions));
      ( "violations",
        Obs.Json.List
          (List.map
             (fun v ->
               Obs.Json.Obj
                 [
                   ("time", num v.Invariant.v_time);
                   ("invariant", Obs.Json.Str v.Invariant.v_invariant);
                   ("detail", Obs.Json.Str v.Invariant.v_detail);
                 ])
             r.violations) );
      ("alarms", Obs.Json.List (List.map Obs.Alert.alarm_to_json r.alarms));
      ( "first_fault_at",
        match r.first_fault_at with Some t -> num t | None -> Obs.Json.Null );
      ( "detection_latency_ms",
        match r.detection_latency with
        | Some d -> num (d *. 1000.0)
        | None -> Obs.Json.Str "never" );
      ("flight_events", num (float_of_int r.flight_events));
      ( "flight_dump",
        match r.flight_dump_path with Some p -> Obs.Json.Str p | None -> Obs.Json.Null );
    ]
