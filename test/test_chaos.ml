(* Tests for the chaos subsystem: fault DSL, invariant checker, and the
   seeded scenario runner (zero violations under the acceptance schedule,
   byte-identical replay from the same seed). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- fault DSL -------------------------------------------------------------- *)

let test_isolate_links () =
  Alcotest.(check (list (pair int int)))
    "all links from the victim"
    [ (2, 0); (2, 1); (2, 3) ]
    (Chaos.Fault.isolate_links ~n:4 2)

let test_schedule_generation_deterministic () =
  let gen () =
    let rng = Sim.Rng.create 99L in
    Chaos.Fault.mixed ~rng ~n:6 ~duration:100.0 ()
  in
  let describe s =
    String.concat ";"
      (List.map (fun { Chaos.Fault.at; action } ->
           Printf.sprintf "%.3f=%s" at (Chaos.Fault.describe action))
          s)
  in
  check_str "same seed, same schedule" (describe (gen ())) (describe (gen ()));
  check "events sorted" true
    (let s = gen () in
     List.for_all2
       (fun a b -> a.Chaos.Fault.at <= b.Chaos.Fault.at)
       (List.filteri (fun i _ -> i < List.length s - 1) s)
       (List.tl s))

(* --- invariant checker (synthetic observations) ------------------------------ *)

let test_agreement_violation_detected () =
  let engine = Sim.Engine.create () in
  let inv = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  Chaos.Invariant.note_execution inv ~replica:0 ~exec_seq:7 ~identity:"hmi#1:open B57";
  Chaos.Invariant.note_execution inv ~replica:1 ~exec_seq:7 ~identity:"hmi#1:open B57";
  check_int "matching executions pass" 0 (List.length (Chaos.Invariant.violations inv));
  Chaos.Invariant.note_execution inv ~replica:2 ~exec_seq:7 ~identity:"hmi#2:close B56";
  match Chaos.Invariant.violations inv with
  | [ v ] -> check_str "agreement violation" "agreement" v.Chaos.Invariant.v_invariant
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_at_most_once_violation_detected () =
  let engine = Sim.Engine.create () in
  let inv = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  Chaos.Invariant.note_actuation inv ~proxy:"MAIN" ~key:"12:B57:true";
  Chaos.Invariant.note_actuation inv ~proxy:"OTHER" ~key:"12:B57:true";
  check_int "distinct proxies may share keys" 0 (List.length (Chaos.Invariant.violations inv));
  Chaos.Invariant.note_actuation inv ~proxy:"MAIN" ~key:"12:B57:true";
  match Chaos.Invariant.violations inv with
  | [ v ] -> check_str "at-most-once violation" "at-most-once" v.Chaos.Invariant.v_invariant
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* --- scenario runner ---------------------------------------------------------- *)

let run_mixed seed = Chaos.Runner.run ~duration:60.0 ~seed ()

let test_mixed_scenario_zero_violations () =
  (* The acceptance scenario: crash + partition + lossy link + leader
     fault in sequence, under continuous SCADA load, with the invariant
     checker attached throughout. *)
  let r = run_mixed 42 in
  check_int "no invariant violations" 0 (List.length r.Chaos.Runner.violations);
  check "faults actually injected" true (List.length r.Chaos.Runner.schedule >= 8);
  check "load ordered through the system" true (r.Chaos.Runner.final_exec_seq > 50);
  check "agreement checked against real executions" true
    (r.Chaos.Runner.executions_checked > 100);
  check "lossy window dropped traffic" true (r.Chaos.Runner.link_dropped > 0);
  check "crash recovery measured" true (List.length r.Chaos.Runner.recovery_latencies = 1);
  check "leader fault forced a view change" true
    (List.length r.Chaos.Runner.view_change_latencies >= 1)

let test_replay_byte_identical () =
  let json r = Obs.Json.to_string (Chaos.Runner.result_to_json r) in
  check_str "same seed replays byte-identically" (json (run_mixed 42)) (json (run_mixed 42))

let test_recovery_overlapping_leader_crash () =
  (* A proactive-recovery downtime window (replica 2 down, clean restart)
     overlapping a leader crash: two simultaneous faults, n=6 keeps a
     quorum of 4, and both safety and recovery liveness must hold. *)
  let schedule =
    [
      { Chaos.Fault.at = 5.0; action = Chaos.Fault.Crash_replica 2 };
      { Chaos.Fault.at = 8.0; action = Chaos.Fault.Leader_silent };
      { Chaos.Fault.at = 25.0; action = Chaos.Fault.Restart_replica 2 };
      { Chaos.Fault.at = 32.0; action = Chaos.Fault.Leader_restore };
    ]
  in
  let r = Chaos.Runner.run ~duration:60.0 ~schedule ~seed:7 () in
  check_int "no violations despite overlap" 0 (List.length r.Chaos.Runner.violations);
  check_int "replica 2 rejoined and re-based" 1
    (List.length r.Chaos.Runner.recovery_latencies);
  check "system kept executing" true (r.Chaos.Runner.final_exec_seq > 50)

(* --- observability ------------------------------------------------------------ *)

let test_flight_replay_byte_identical () =
  (* The flight recorder is fed only by deterministic protocol events, so
     two same-seed observed campaigns must dump byte-identical JSONL. *)
  let dump seed = Chaos.Runner.run ~duration:30.0 ~seed () in
  let a = dump 42 and b = dump 42 in
  (match (a.Chaos.Runner.flight_jsonl, b.Chaos.Runner.flight_jsonl) with
  | Some ja, Some jb ->
      check "flight log non-empty" true (a.Chaos.Runner.flight_events > 0);
      check_str "same seed, same flight JSONL" ja jb;
      List.iter
        (fun line -> check "every line is valid JSON" true (Obs.Json.parse_opt line <> None))
        (String.split_on_char '\n' (String.trim ja))
  | _ -> Alcotest.fail "observing runs must return a flight dump")

let test_observation_is_passive () =
  (* Flipping the recorder/probes/alerts on must not move one protocol
     event: the observed run and the dark run agree on every core result. *)
  let on = Chaos.Runner.run ~duration:30.0 ~seed:42 ~observe:true () in
  let off = Chaos.Runner.run ~duration:30.0 ~seed:42 ~observe:false () in
  check_int "same final exec seq" off.Chaos.Runner.final_exec_seq
    on.Chaos.Runner.final_exec_seq;
  check_int "same commands issued" off.Chaos.Runner.commands_issued
    on.Chaos.Runner.commands_issued;
  check "same view transitions" true
    (off.Chaos.Runner.view_transitions = on.Chaos.Runner.view_transitions);
  check "same fault schedule" true (off.Chaos.Runner.schedule = on.Chaos.Runner.schedule);
  check_int "same link drops" off.Chaos.Runner.link_dropped on.Chaos.Runner.link_dropped;
  check_int "dark run records nothing" 0 off.Chaos.Runner.flight_events;
  check "dark run returns no dump" true (off.Chaos.Runner.flight_jsonl = None);
  check "observed run records events" true (on.Chaos.Runner.flight_events > 0)

let test_violation_dumps_flight_log () =
  (* An impossible liveness bound trips the invariant checker; the first
     violation must flush the flight log to the requested path. *)
  let path = Filename.temp_file "spire-flight-test" ".jsonl" in
  let r =
    Chaos.Runner.run ~duration:20.0 ~schedule:[] ~liveness_bound:0.01 ~seed:3
      ~flight_dump:path ()
  in
  check "bound actually tripped" true (List.length r.Chaos.Runner.violations > 0);
  check "result reports the dump path" true
    (r.Chaos.Runner.flight_dump_path = Some path);
  check "dump file written" true (Sys.file_exists path);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check "dump is non-empty" true (!lines <> []);
  List.iter
    (fun line -> check "dump lines parse as JSON" true (Obs.Json.parse_opt line <> None))
    !lines;
  Sys.remove path

let suite =
  [
    ("isolate links", `Quick, test_isolate_links);
    ("schedule generation deterministic", `Quick, test_schedule_generation_deterministic);
    ("agreement violation detected", `Quick, test_agreement_violation_detected);
    ("at-most-once violation detected", `Quick, test_at_most_once_violation_detected);
    ("mixed scenario zero violations", `Slow, test_mixed_scenario_zero_violations);
    ("replay byte-identical", `Slow, test_replay_byte_identical);
    ("recovery overlapping leader crash", `Slow, test_recovery_overlapping_leader_crash);
    ("flight replay byte-identical", `Slow, test_flight_replay_byte_identical);
    ("observation is passive", `Slow, test_observation_is_passive);
    ("violation dumps flight log", `Slow, test_violation_dumps_flight_log);
  ]

let () = Alcotest.run "chaos" [ ("chaos", suite) ]
