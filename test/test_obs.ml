(* Tests for the telemetry subsystem: registry semantics, pipeline
   tracing, the flight recorder, probes and alert rules. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("null", Null);
        ("yes", Bool true);
        ("int", Num 42.0);
        ("frac", Num 1.5);
        ("text", Str "a \"quoted\"\nline");
        ("list", List [ Num 1.0; Str "two"; Bool false ]);
        ("nested", Obj [ ("k", Null) ]);
      ]
  in
  let reparsed = parse (to_string doc) in
  check "compact round-trips" true (reparsed = doc);
  let reparsed_pretty = parse (to_string_pretty doc) in
  check "pretty round-trips" true (reparsed_pretty = doc);
  check_string "integral floats print as ints" "42" (to_string (Num 42.0));
  check "member" true (member "int" doc = Some (Num 42.0));
  check "member missing" true (member "absent" doc = None)

let test_json_parse_errors () =
  let bad s = Obs.Json.parse_opt s = None in
  check "trailing garbage" true (bad "{} x");
  check "unterminated string" true (bad "\"abc");
  check "bare word" true (bad "flase");
  check "unterminated object" true (bad "{\"a\": 1");
  check "valid stays valid" true (not (bad "{\"a\": [1, 2, {\"b\": null}]}"))

(* --- Spans ------------------------------------------------------------- *)

let test_pipeline_marks () =
  let store = Obs.Span.create_store ~opens:[ "flip" ] ~closes:[ "repaint" ] () in
  let mark stage time = Obs.Span.mark store ~trace:"status:B57:0" ~stage ~time in
  (* A mark with no open instance is an orphan. *)
  Obs.Span.mark store ~trace:"status:B57:0" ~stage:"report" ~time:0.5;
  check_int "orphan counted" 1 (Obs.Span.orphan_count store);
  mark "flip" 1.0;
  mark "report" 1.05;
  (* Only the first occurrence of a stage is kept. *)
  mark "report" 1.06;
  mark "repaint" 1.08;
  check_int "completed" 1 (Obs.Span.completed_count store);
  (match Obs.Span.completed store with
  | [ inst ] ->
      check "marks in causal order" true
        (Obs.Span.marks inst = [ ("flip", 1.0); ("report", 1.05); ("repaint", 1.08) ]);
      check "mark_time" true (Obs.Span.mark_time inst "report" = Some 1.05)
  | _ -> Alcotest.fail "expected one completed instance");
  (* Re-opening before closing abandons the open instance. *)
  mark "flip" 2.0;
  mark "flip" 3.0;
  check_int "abandoned" 1 (Obs.Span.abandoned_count store);
  check_int "still one active" 1 (Obs.Span.active_count store);
  mark "repaint" 3.1;
  check_int "second completion" 2 (Obs.Span.completed_count store)

let test_stage_breakdown () =
  let store = Obs.Span.create_store ~opens:[ "a" ] ~closes:[ "c" ] () in
  let run trace t0 =
    Obs.Span.mark store ~trace ~stage:"a" ~time:t0;
    Obs.Span.mark store ~trace ~stage:"b" ~time:(t0 +. 0.1);
    Obs.Span.mark store ~trace ~stage:"c" ~time:(t0 +. 0.3)
  in
  run "k1" 1.0;
  run "k2" 2.0;
  let breakdown =
    Obs.Span.stage_breakdown store
      ~stages:[ ("first", "a", "b"); ("second", "b", "c"); ("whole", "a", "c") ]
  in
  List.iter
    (fun (label, expected) ->
      match List.assoc_opt label breakdown with
      | Some s ->
          check_int (label ^ " count") 2 (Sim.Stats.Summary.count s);
          check (label ^ " mean") true
            (abs_float (Sim.Stats.Summary.mean s -. expected) < 1e-9)
      | None -> Alcotest.fail (label ^ " missing"))
    [ ("first", 0.1); ("second", 0.2); ("whole", 0.3) ]

let test_trace_keys () =
  check_string "status key" "status:B57:1" (Obs.Span.status_key ~breaker:"B57" ~closed:true);
  check_string "status key open" "status:B57:0"
    (Obs.Span.status_key ~breaker:"B57" ~closed:false);
  check_string "command key" "cmd:B10-1:0" (Obs.Span.command_key ~breaker:"B10-1" ~close:false);
  (* Must match the canonical Scada.Op encoding exactly — the whole
     correlation scheme rests on it. *)
  check_string "matches Scada.Op status"
    (Scada.Op.encode (Scada.Op.Status { breaker = "B57"; closed = true }))
    (Obs.Span.status_key ~breaker:"B57" ~closed:true);
  check_string "matches Scada.Op command"
    (Scada.Op.encode (Scada.Op.Command { breaker = "B57"; close = false }))
    (Obs.Span.command_key ~breaker:"B57" ~close:false)

(* --- Registry ----------------------------------------------------------- *)

let test_registry_disabled_noop () =
  let r = Obs.Registry.create () in
  check "fresh registry disabled" false (Obs.Registry.enabled r);
  Obs.Registry.mark r ~trace:"k" ~stage:Obs.Registry.stage_flip ~time:1.0;
  Obs.Registry.mark_status r ~breaker:"B1" ~closed:true ~stage:Obs.Registry.stage_flip ~time:1.0;
  Obs.Registry.mark_command r ~breaker:"B1" ~close:true ~stage:Obs.Registry.stage_command
    ~time:1.0;
  check_int "no pipeline activity" 0 (Obs.Span.active_count (Obs.Registry.spans r));
  check_int "not even orphans" 0 (Obs.Span.orphan_count (Obs.Registry.spans r));
  (* The promise behind leaving the marks in the hot paths: disabled,
     a mark is a load and a branch, and builds no trace key. *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Registry.mark_status r ~breaker:"B1" ~closed:true ~stage:Obs.Registry.stage_flip
      ~time:1.0;
    Obs.Registry.mark_command r ~breaker:"B1" ~close:false ~stage:Obs.Registry.stage_command
      ~time:1.0
  done;
  check_float "disabled marks allocate nothing" 0.0 (Gc.minor_words () -. before)

let test_registry_enabled_records () =
  let r = Obs.Registry.create () in
  Obs.Registry.set_enabled r true;
  Obs.Registry.mark_status r ~breaker:"B1" ~closed:true ~stage:Obs.Registry.stage_flip ~time:1.0;
  Obs.Registry.mark r ~trace:(Obs.Span.status_key ~breaker:"B1" ~closed:true)
    ~stage:Obs.Registry.stage_repaint ~time:1.5;
  Obs.Registry.mark_command r ~breaker:"B2" ~close:false ~stage:Obs.Registry.stage_command
    ~time:2.0;
  Obs.Registry.mark r ~trace:"unopened" ~stage:Obs.Registry.stage_push ~time:2.1;
  let spans = Obs.Registry.spans r in
  check_int "status pipeline completed" 1 (Obs.Span.completed_count spans);
  check_int "command pipeline open" 1 (Obs.Span.active_count spans);
  check_int "one orphan" 1 (Obs.Span.orphan_count spans);
  (match Obs.Span.completed spans with
  | [ inst ] ->
      check_string "mark_status builds the status key" "status:B1:1" inst.Obs.Span.trace
  | l -> Alcotest.fail (Printf.sprintf "expected 1 completed, got %d" (List.length l)));
  Obs.Registry.mark r ~trace:(Obs.Span.command_key ~breaker:"B2" ~close:false)
    ~stage:Obs.Registry.stage_actuate ~time:2.2;
  check_int "mark_command builds the command key" 2 (Obs.Span.completed_count spans);
  Obs.Registry.reset r;
  check "reset keeps enabled" true (Obs.Registry.enabled r);
  check_int "reset clears completed" 0 (Obs.Span.completed_count spans);
  check_int "reset clears orphans" 0 (Obs.Span.orphan_count spans)

let test_registry_with_enabled () =
  let r = Obs.Registry.create () in
  let flip trace time = Obs.Registry.mark r ~trace ~stage:Obs.Registry.stage_flip ~time in
  Obs.Registry.set_enabled r true;
  flip "stale" 0.5;
  Obs.Registry.set_enabled r false;
  let result =
    Obs.Registry.with_enabled r (fun () ->
        check "enabled inside" true (Obs.Registry.enabled r);
        check_int "previous marks cleared" 0 (Obs.Span.active_count (Obs.Registry.spans r));
        flip "fresh" 1.0;
        "done")
  in
  check_string "returns body result" "done" result;
  check "restored to disabled" false (Obs.Registry.enabled r);
  check_int "marks survive exit" 1 (Obs.Span.active_count (Obs.Registry.spans r));
  (* The previous state is restored even when the body raises. *)
  (try
     Obs.Registry.with_enabled r (fun () -> failwith "boom")
   with Failure _ -> ());
  check "restored after exception" false (Obs.Registry.enabled r)

let test_registry_pipeline_stages () =
  let r = Obs.Registry.create () in
  Obs.Registry.set_enabled r true;
  let trace = Obs.Span.status_key ~breaker:"B57" ~closed:false in
  List.iter
    (fun (stage, time) -> Obs.Registry.mark r ~trace ~stage ~time)
    [
      (Obs.Registry.stage_flip, 1.0);
      (Obs.Registry.stage_report, 1.05);
      (Obs.Registry.stage_accept, 1.06);
      (Obs.Registry.stage_preorder, 1.08);
      (Obs.Registry.stage_execute, 1.09);
      (Obs.Registry.stage_repaint, 1.1);
    ];
  check_int "one completed instance" 1 (Obs.Span.completed_count (Obs.Registry.spans r));
  let breakdown = Obs.Export.reaction_breakdown r in
  let total =
    List.fold_left
      (fun acc (label, s) ->
        if String.equal label "end-to-end" then acc else acc +. Sim.Stats.Summary.mean s)
      0.0 breakdown
  in
  (match List.assoc_opt "end-to-end" breakdown with
  | Some s ->
      check "stage sums telescope to end-to-end" true
        (abs_float (total -. Sim.Stats.Summary.mean s) < 1e-9)
  | None -> Alcotest.fail "end-to-end row missing")

(* --- Export ------------------------------------------------------------- *)

let test_summary_to_json () =
  let s = Sim.Stats.Summary.create () in
  let empty = Obs.Export.summary_to_json s in
  check "empty summary has count 0" true (Obs.Json.member "count" empty = Some (Obs.Json.Num 0.0));
  check "empty summary has no mean" true (Obs.Json.member "mean" empty = None);
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0 ];
  let j = Obs.Export.summary_to_json s in
  let field k = Option.bind (Obs.Json.member k j) Obs.Json.num in
  check "count" true (field "count" = Some 3.0);
  check "mean" true (match field "mean" with Some m -> abs_float (m -. 2.0) < 1e-6 | None -> false);
  check "p50" true (match field "p50" with Some m -> abs_float (m -. 2.0) < 1e-6 | None -> false);
  check "p99 present" true (field "p99" <> None)

(* --- Json: non-finite numbers ------------------------------------------- *)

let test_json_nonfinite () =
  let open Obs.Json in
  (* JSON has no NaN/Infinity literals; the printer must emit null, not a
     token no parser accepts. *)
  check_string "nan prints as null" "null" (to_string (Num Float.nan));
  check_string "inf prints as null" "null" (to_string (Num Float.infinity));
  check_string "-inf prints as null" "null" (to_string (Num Float.neg_infinity));
  let doc = Obj [ ("p50", Num Float.nan); ("count", Num 0.0) ] in
  check "round-trips with non-finite leaves as null" true
    (parse (to_string doc) = Obj [ ("p50", Null); ("count", Num 0.0) ]);
  check "pretty form parses too" true (parse_opt (to_string_pretty doc) <> None)

(* --- Flight recorder ----------------------------------------------------- *)

let test_flight_recorder () =
  let fl = Obs.Flight.create ~capacity:2 () in
  Obs.Flight.record fl ~time:0.5 ~severity:Obs.Flight.Info ~subsystem:"x" ~kind:"k" "off";
  check_int "disabled records nothing" 0 (Obs.Flight.total fl);
  Obs.Flight.set_enabled fl true;
  Obs.Flight.record fl ~time:1.0 ~severity:Obs.Flight.Info ~subsystem:"x" ~kind:"one" "first";
  Obs.Flight.record fl ~time:2.0 ~severity:Obs.Flight.Warn ~subsystem:"x" ~kind:"two" "second";
  Obs.Flight.record fl ~time:3.0 ~severity:Obs.Flight.Alarm ~subsystem:"y" ~kind:"three" "third";
  check_int "total counts evicted events too" 3 (Obs.Flight.total fl);
  check_int "ring retains capacity" 2 (Obs.Flight.retained fl);
  check_int "warn count" 1 (Obs.Flight.warn_count fl);
  check_int "alarm count" 1 (Obs.Flight.alarm_count fl);
  (match Obs.Flight.events fl with
  | [ e2; e3 ] ->
      check_string "oldest retained" "two" e2.Obs.Flight.ev_kind;
      check_string "newest retained" "three" e3.Obs.Flight.ev_kind;
      check_int "seq numbers stay global" 3 e3.Obs.Flight.ev_seq
  | _ -> Alcotest.fail "expected two retained events");
  let lines = String.split_on_char '\n' (String.trim (Obs.Flight.to_jsonl fl)) in
  check_int "one jsonl line per retained event" 2 (List.length lines);
  List.iter (fun l -> check "jsonl line parses" true (Obs.Json.parse_opt l <> None)) lines;
  check "capacity 0 rejected" true
    (match Obs.Flight.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | (_ : Obs.Flight.t) -> false)

let test_flight_clock_and_subscribers () =
  let fl = Obs.Flight.create () in
  Obs.Flight.set_enabled fl true;
  let clock = ref 7.5 in
  Obs.Flight.set_clock fl (fun () -> !clock);
  let seen = ref [] in
  Obs.Flight.on_event fl (fun e -> seen := e.Obs.Flight.ev_kind :: !seen);
  Obs.Flight.record fl ~severity:Obs.Flight.Info ~subsystem:"x" ~kind:"a" "";
  (match Obs.Flight.events fl with
  | [ e ] -> check_float "installed clock consulted" 7.5 e.Obs.Flight.ev_time
  | _ -> Alcotest.fail "expected one event");
  check "subscriber saw the event" true (!seen = [ "a" ]);
  Obs.Flight.reset fl;
  check_int "reset clears the buffer" 0 (Obs.Flight.total fl);
  Obs.Flight.record fl ~time:1.0 ~severity:Obs.Flight.Info ~subsystem:"x" ~kind:"b" "";
  check "reset dropped the subscriber" true (!seen = [ "a" ])

(* --- Health probes -------------------------------------------------------- *)

let test_probe_gating_and_sampling () =
  let p = Obs.Probe.create () in
  Obs.Probe.register p ~name:"b" (fun () -> [ ("m", 1.0) ]);
  check_int "disabled register is a no-op" 0 (Obs.Probe.count p);
  Obs.Probe.set_enabled p true;
  Obs.Probe.register p ~name:"b" (fun () -> [ ("z", 2.0); ("a", 1.0) ]);
  Obs.Probe.register p ~name:"a" (fun () -> [ ("m", 0.0) ]);
  check_int "two probes registered" 2 (Obs.Probe.count p);
  (match Obs.Probe.sample p with
  | [ ("a", [ ("m", 0.0) ]); ("b", [ ("a", 1.0); ("z", 2.0) ]) ] -> ()
  | _ -> Alcotest.fail "sample must sort probes and metrics by name");
  (* Restarted subsystems re-register under the same name: newest wins. *)
  Obs.Probe.register p ~name:"a" (fun () -> [ ("m", 9.0) ]);
  check_int "re-register replaces" 2 (Obs.Probe.count p);
  (match List.assoc_opt "a" (Obs.Probe.sample p) with
  | Some [ ("m", 9.0) ] -> ()
  | _ -> Alcotest.fail "newest registration must win");
  check "sample_json parses" true
    (Obs.Json.parse_opt (Obs.Json.to_string (Obs.Probe.sample_json (Obs.Probe.sample p)))
    <> None);
  Obs.Probe.reset p;
  check_int "reset drops probes" 0 (Obs.Probe.count p)

let test_probe_label_suffix () =
  let p = Obs.Probe.create () in
  Obs.Probe.set_enabled p true;
  Obs.Probe.set_label p (Some "s03");
  Obs.Probe.register p ~name:"prime.replica.2" (fun () -> [ ("view", 0.0) ]);
  Obs.Probe.set_label p None;
  Obs.Probe.register p ~name:"prime.replica.2" (fun () -> [ ("view", 1.0) ]);
  (* Labelled and unlabelled instances coexist; the label is a suffix so
     the "prime." prefix the alert rules match stays intact. *)
  check_int "two distinct probes" 2 (Obs.Probe.count p);
  (match Obs.Probe.sample p with
  | [ ("prime.replica.2", _); ("prime.replica.2@s03", _) ] -> ()
  | _ -> Alcotest.fail "labelled probe must register under name@label");
  (* with_label scopes and restores; unregister honours the label. *)
  Obs.Probe.with_label p "s07" (fun () ->
      Obs.Probe.register p ~name:"spines.node.1" (fun () -> []));
  check_int "scoped registration landed" 3 (Obs.Probe.count p);
  Obs.Probe.register p ~name:"plain" (fun () -> []);
  check "label restored after with_label" true
    (List.mem_assoc "plain" (Obs.Probe.sample p));
  Obs.Probe.set_label p (Some "s03");
  Obs.Probe.unregister p "prime.replica.2";
  Obs.Probe.set_label p None;
  check "unregister removed the labelled instance" false
    (List.mem_assoc "prime.replica.2@s03" (Obs.Probe.sample p));
  check "unlabelled instance survives" true
    (List.mem_assoc "prime.replica.2" (Obs.Probe.sample p))

let test_probe_sorted_cache_invalidation () =
  let p = Obs.Probe.create () in
  Obs.Probe.set_enabled p true;
  (* Values are read through the closure at sample time, never cached. *)
  let v = ref 1.0 in
  Obs.Probe.register p ~name:"m" (fun () -> [ ("x", !v) ]);
  check "first sample" true (Obs.Probe.sample p = [ ("m", [ ("x", 1.0) ]) ]);
  v := 2.0;
  check "second sample sees fresh value" true (Obs.Probe.sample p = [ ("m", [ ("x", 2.0) ]) ]);
  (* Registrations after a sample must appear (the sorted cache is
     invalidated, not stale). *)
  Obs.Probe.register p ~name:"a" (fun () -> [ ("y", 0.0) ]);
  check "new probe visible and sorted first" true
    (List.map fst (Obs.Probe.sample p) = [ "a"; "m" ]);
  Obs.Probe.register p ~name:"m" (fun () -> [ ("x", 9.0) ]);
  check "replacement visible after cache" true
    (Obs.Probe.sample p = [ ("a", [ ("y", 0.0) ]); ("m", [ ("x", 9.0) ]) ]);
  Obs.Probe.unregister p "a";
  check "unregister invalidates" true (List.map fst (Obs.Probe.sample p) = [ "m" ]);
  Obs.Probe.reset p;
  check "reset invalidates" true (Obs.Probe.sample p = [])

(* --- Alert engine --------------------------------------------------------- *)

let test_alert_edge_trigger () =
  let active = ref false in
  let rule =
    Obs.Alert.sample_rule ~name:"stuck" (fun _ -> if !active then Some "held" else None)
  in
  let a = Obs.Alert.create ~sample_rules:[ rule ] ~event_rules:[] () in
  Obs.Alert.evaluate a ~time:1.0 [];
  check_int "quiet start" 0 (Obs.Alert.alarm_count a);
  active := true;
  Obs.Alert.evaluate a ~time:2.0 [];
  Obs.Alert.evaluate a ~time:3.0 [];
  check_int "edge fires once, not per tick" 1 (Obs.Alert.alarm_count a);
  active := false;
  Obs.Alert.evaluate a ~time:4.0 [];
  active := true;
  Obs.Alert.evaluate a ~time:5.0 [];
  check_int "re-arms after the condition clears" 2 (Obs.Alert.alarm_count a);
  (match Obs.Alert.first_alarm_after a 4.5 with
  | Some al ->
      check_float "second alarm time" 5.0 al.Obs.Alert.al_time;
      check_string "rule name" "stuck" al.Obs.Alert.al_rule
  | None -> Alcotest.fail "expected an alarm after t=4.5")

let test_alert_event_window () =
  let fl = Obs.Flight.create () in
  Obs.Flight.set_enabled fl true;
  let rule = Obs.Alert.event_rule ~name:"burst" ~kinds:[ "boom" ] ~threshold:2 () in
  let a = Obs.Alert.create ~sample_rules:[] ~event_rules:[ rule ] ~flight:fl () in
  let boom t =
    Obs.Flight.record fl ~time:t ~severity:Obs.Flight.Warn ~subsystem:"x" ~kind:"boom" ""
  in
  boom 1.0;
  check_int "below threshold" 0 (Obs.Alert.alarm_count a);
  boom 2.5;
  check_int "stale events aged out of the window" 0 (Obs.Alert.alarm_count a);
  boom 3.0;
  check_int "two inside the window fire" 1 (Obs.Alert.alarm_count a);
  boom 3.1;
  boom 3.2;
  check_int "cooldown suppresses a refire" 1 (Obs.Alert.alarm_count a);
  boom 9.0;
  boom 9.1;
  check_int "fires again after the cooldown" 2 (Obs.Alert.alarm_count a);
  (* Alarms are echoed into the recorder (and must not feed back into
     the event rules). *)
  check_int "alarms echoed to flight" 2 (Obs.Flight.alarm_count fl);
  (match Obs.Alert.alarms a with
  | first :: _ -> check_float "oldest first" 3.0 first.Obs.Alert.al_time
  | [] -> Alcotest.fail "expected alarms")

let suite =
  [
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json parse errors", `Quick, test_json_parse_errors);
    ("pipeline marks", `Quick, test_pipeline_marks);
    ("stage breakdown", `Quick, test_stage_breakdown);
    ("trace keys", `Quick, test_trace_keys);
    ("registry disabled noop", `Quick, test_registry_disabled_noop);
    ("registry enabled records", `Quick, test_registry_enabled_records);
    ("registry with_enabled", `Quick, test_registry_with_enabled);
    ("registry pipeline stages", `Quick, test_registry_pipeline_stages);
    ("summary to_json", `Quick, test_summary_to_json);
    ("json non-finite", `Quick, test_json_nonfinite);
    ("flight recorder", `Quick, test_flight_recorder);
    ("flight clock and subscribers", `Quick, test_flight_clock_and_subscribers);
    ("probe gating and sampling", `Quick, test_probe_gating_and_sampling);
    ("probe label suffix", `Quick, test_probe_label_suffix);
    ("probe sorted cache invalidation", `Quick, test_probe_sorted_cache_invalidation);
    ("alert edge trigger", `Quick, test_alert_edge_trigger);
    ("alert event window", `Quick, test_alert_event_window);
  ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
