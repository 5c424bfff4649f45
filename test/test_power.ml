(* Grid-physics co-simulation tests: DC-flow conservation, same-seed
   determinism, islanding, inverse-time protection, and the chi-square
   bad-data loop (false-positive control plus FDIA detection). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Hex-float rendering: byte-identical iff the solutions are. *)
let render_solution (s : Power.Model.solution) =
  let b = Buffer.create 256 in
  Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "%h," f)) s.Power.Model.flows_mw;
  Array.iter (fun l -> Buffer.add_string b (if l then "1" else "0")) s.Power.Model.line_live;
  Array.iter (fun l -> Buffer.add_string b (if l then "1" else "0")) s.Power.Model.served;
  Buffer.add_string b
    (Printf.sprintf "|%h|%h|%h|%h|%d" s.Power.Model.served_mw s.Power.Model.shed_mw
       s.Power.Model.gen_mw s.Power.Model.frequency_hz s.Power.Model.n_islands);
  List.iter
    (fun (li, r) -> Buffer.add_string b (Printf.sprintf ";%d:%h" li r))
    s.Power.Model.overloads;
  Buffer.contents b

let solve_masked model ~open_mask ~tie_mask =
  Power.Model.solve model
    ~breaker_closed:(fun name ->
      (* Feeder gates are the sites' B00 breakers; bit i of [open_mask]
         opens site i's feeder. *)
      match String.index_opt name '/' with
      | Some i when String.length name - i = 4 && String.sub name (i + 1) 3 = "B00" ->
          let site = int_of_string (String.sub name 4 3) in
          open_mask land (1 lsl site) = 0
      | _ -> true)
    ~line_in_service:(fun li ->
      let line = model.Power.Model.lines.(li) in
      match line.Power.Model.gate with
      | Some _ -> true
      | None -> tie_mask land (1 lsl (li mod 60)) = 0)

let prop_conservation =
  QCheck.Test.make ~count:60 ~name:"solutions conserve injections"
    QCheck.(triple (int_range 1 8) (int_range 0 0xFF) (int_range 0 0xFFFF))
    (fun (sites, open_mask, tie_mask) ->
      let scenario = Plc.Power.synthetic ~devices:(20 * sites) () in
      let model = Power.Model.of_scenario scenario in
      let s = solve_masked model ~open_mask ~tie_mask in
      let total = Power.Model.total_demand_mw model in
      (* Lossless DC flow: generation matches served load exactly, and
         every megawatt is either served or accounted as shed. *)
      abs_float (s.Power.Model.gen_mw -. s.Power.Model.served_mw) <= 1e-6
      && abs_float (s.Power.Model.served_mw +. s.Power.Model.shed_mw -. total) <= 1e-6
      && Array.for_all2
           (fun live f -> live || abs_float f <= 1e-9)
           s.Power.Model.line_live s.Power.Model.flows_mw)

let prop_solution_deterministic =
  QCheck.Test.make ~count:40 ~name:"solutions are byte-identical across rebuilds"
    QCheck.(triple (int_range 1 6) (int_range 0 0xFF) (int_range 0 0xFFFF))
    (fun (sites, open_mask, tie_mask) ->
      let run () =
        let model = Power.Model.of_scenario (Plc.Power.synthetic ~devices:(20 * sites) ()) in
        render_solution (solve_masked model ~open_mask ~tie_mask)
      in
      String.equal (run ()) (run ()))

(* Co-simulate the two-corridor cascade and render every observable
   byte: trip log, shed log, analog image, end state. *)
let cascade_run () =
  let engine = Sim.Engine.create ~seed:4242L () in
  let model = Power.Model.of_scenario (Plc.Power.synthetic ~devices:1000 ()) in
  let net = Power.Net.create ~engine model in
  let open_site s =
    Power.Net.set_breaker net (Printf.sprintf "SUB-%03d/B00" s) ~closed:false
  in
  ignore
    (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> List.iter open_site [ 10; 11; 12 ]));
  ignore
    (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> List.iter open_site [ 30; 31; 32 ]));
  Sim.Engine.run ~until:60.0 engine;
  let b = Buffer.create 1024 in
  List.iter
    (fun (t, line) -> Buffer.add_string b (Printf.sprintf "trip %h %s\n" t line))
    (Power.Net.trip_log net);
  List.iter
    (fun (t, load, mw) -> Buffer.add_string b (Printf.sprintf "shed %h %s %h\n" t load mw))
    (Power.Net.shed_log net);
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" name v))
    (Power.Net.all_analogs net);
  Buffer.add_string b
    (Printf.sprintf "end %h %h %h %d\n" (Power.Net.served_mw net) (Power.Net.shed_mw net)
       (Power.Net.frequency_hz net) (Power.Net.tripped_lines net));
  Buffer.contents b

let test_cascade_deterministic () =
  let run = cascade_run () in
  check "run is non-trivial" true (String.length run > 100);
  check "at least four trips" true
    (List.length (String.split_on_char '\n' run |> List.filter (fun l ->
         String.length l > 4 && String.sub l 0 4 = "trip")) >= 4);
  check_str "same-seed rerun byte-identical" run (cascade_run ())

let test_islanding_sheds_load () =
  let model = Power.Model.of_scenario (Plc.Power.synthetic ~devices:60 ()) in
  (* Open site 1's feeder and take both its ring ties out of service:
     the island is dark, its load shed, everyone else untouched. *)
  let s =
    Power.Model.solve model
      ~breaker_closed:(fun name -> not (String.equal name "SUB-001/B00"))
      ~line_in_service:(fun li ->
        let line = model.Power.Model.lines.(li) in
        match line.Power.Model.gate with
        | Some _ -> true
        | None ->
            let b1 = model.Power.Model.buses.(line.Power.Model.from_bus).Power.Model.bus_name in
            let b2 = model.Power.Model.buses.(line.Power.Model.to_bus).Power.Model.bus_name in
            (not (String.equal b1 "SUB-001/B00")) && not (String.equal b2 "SUB-001/B00"))
  in
  let shed_load =
    Array.to_list model.Power.Model.loads
    |> List.filter (fun (l : Power.Model.load) -> not s.Power.Model.served.(l.Power.Model.load_index))
  in
  check_int "exactly site 1's load is dark" 1 (List.length shed_load);
  (match shed_load with
  | [ l ] ->
      check_str "the dark load is site 1's" "SUB-001-substation" l.Power.Model.load_name;
      check "shed accounting matches the dark demand" true
        (abs_float (s.Power.Model.shed_mw -. l.Power.Model.demand_mw) <= 1e-9)
  | _ -> Alcotest.fail "expected one dark load");
  check "balance holds with the island dark" true
    (abs_float (s.Power.Model.gen_mw -. s.Power.Model.served_mw) <= 1e-6)

let test_inverse_time_trip_delay () =
  let scenario = Plc.Power.synthetic ~devices:1000 () in
  let model = Power.Model.of_scenario scenario in
  (* Expected first trip straight from the inverse-time formula applied
     to the post-contingency solution. *)
  let opened = [ "SUB-010/B00"; "SUB-011/B00"; "SUB-012/B00" ] in
  let s0 =
    Power.Model.solve model
      ~breaker_closed:(fun n -> not (List.mem n opened))
      ~line_in_service:(fun _ -> true)
  in
  check "the contingency overloads at least one tie" true (s0.Power.Model.overloads <> []);
  let expected_line, expected_time =
    List.fold_left
      (fun (bl, bt) (li, ratio) ->
        let delay = Float.min 30.0 (Float.max 1.0 (5.0 /. (ratio -. 1.0))) in
        let t = 1.0 +. delay in
        if t < bt then (model.Power.Model.lines.(li).Power.Model.line_name, t) else (bl, bt))
      ("", infinity) s0.Power.Model.overloads
  in
  let engine = Sim.Engine.create ~seed:1L () in
  let net = Power.Net.create ~engine model in
  ignore
    (Sim.Engine.schedule_at engine ~time:1.0 (fun () ->
         List.iter (fun b -> Power.Net.set_breaker net b ~closed:false) opened));
  Sim.Engine.run ~until:40.0 engine;
  (match Power.Net.trip_log net with
  | (t, line) :: _ ->
      check_str "first trip is the worst overload" expected_line line;
      check "first trip follows the inverse-time formula" true (abs_float (t -. expected_time) <= 1e-9)
  | [] -> Alcotest.fail "no trip recorded");
  check "the initial trip cascades" true (List.length (Power.Net.trip_log net) >= 2);
  check "the cascade sheds the islanded load" true (Power.Net.shed_mw net > 0.0)

let test_trip_cancelled_on_recovery () =
  let model = Power.Model.of_scenario (Plc.Power.synthetic ~devices:1000 ()) in
  let engine = Sim.Engine.create ~seed:1L () in
  let net = Power.Net.create ~engine model in
  let set c = List.iter (fun s ->
      Power.Net.set_breaker net (Printf.sprintf "SUB-%03d/B00" s) ~closed:c) [ 10; 11; 12 ]
  in
  ignore (Sim.Engine.schedule_at engine ~time:1.0 (fun () -> set false));
  (* Reclose well before the shortest pending trip delay expires. *)
  ignore (Sim.Engine.schedule_at engine ~time:2.0 (fun () -> set true));
  Sim.Engine.run ~until:60.0 engine;
  check_int "no trips after the overload cleared" 0 (List.length (Power.Net.trip_log net));
  check "nothing shed" true (Power.Net.shed_mw net = 0.0)

(* --- closed loop: deployment, telemetry, chi-square ---------------------- *)

let dnp3_everything scenario =
  List.map (fun (p : Plc.Power.plc_spec) -> p.Plc.Power.plc_name) scenario.Plc.Power.plcs

let test_chi2_false_positive_control () =
  let engine = Sim.Engine.create ~seed:11L () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.power_plant () in
  let scenario = Plc.Power.synthetic ~devices:100 () in
  let d =
    Spire.Deployment.create ~proxy_poll_period:0.1 ~dnp3_plcs:(dnp3_everything scenario)
      ~engine ~trace ~config scenario
  in
  let inv = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  Chaos.Invariant.attach_power inv d;
  (* An honest breaker operation mid-run: position and analogs both
     re-report, so the estimator must stay quiet through the change. *)
  ignore
    (Sim.Engine.schedule_at engine ~time:3.0 (fun () ->
         match Spire.Deployment.find_breaker d "SUB-002/B00" with
         | Some (_, b) -> Plc.Breaker.force b Plc.Breaker.Open
         | None -> ()));
  Sim.Engine.run ~until:8.0 engine;
  check "estimator swept" true (Chaos.Invariant.estimator_sweeps inv > 0);
  (match Chaos.Invariant.estimator_last inv with
  | Some r ->
      check "honest telemetry is not flagged" false r.Chaos.Estimator.est_flagged;
      check "dof positive" true (r.Chaos.Estimator.est_dof > 0)
  | None -> Alcotest.fail "estimator produced no report");
  check_int "no violations on the honest run" 0 (List.length (Chaos.Invariant.violations inv));
  check "no fdia verdict" true (Chaos.Invariant.fdia_detected_at inv = None)

let test_fdia_detected_by_chi2_only () =
  let engine = Sim.Engine.create ~seed:11L () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.power_plant () in
  let scenario = Plc.Power.synthetic ~devices:100 () in
  let d =
    Spire.Deployment.create ~proxy_poll_period:0.1 ~dnp3_plcs:(dnp3_everything scenario)
      ~engine ~trace ~config scenario
  in
  let inv = Chaos.Invariant.create ~engine ~is_healthy:(fun () -> true) () in
  Chaos.Invariant.attach inv d;
  Chaos.Invariant.attach_power inv d;
  Sim.Engine.run ~until:5.0 engine;
  let fdia =
    match Attack.Fdia.launch d ~site:"SUB-002" with
    | Ok f -> f
    | Error e -> Alcotest.failf "launch: %s" e
  in
  Sim.Engine.run ~until:6.0 engine;
  check "analog image frozen after a poll" true (Attack.Fdia.frozen fdia);
  (match Attack.Fdia.force_open fdia d ~breaker:"SUB-002/B00" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "force_open: %s" e);
  Sim.Engine.run ~until:12.0 engine;
  (match Chaos.Invariant.fdia_detected_at inv with
  | Some t ->
      check "detected after the physical flip" true (t > 6.0);
      check "detected promptly" true (t < 8.0)
  | None -> Alcotest.fail "chi-square did not fire");
  (* The whole point: every breaker-state and physical invariant stays
     silent; only the bad-data detector sees the lie. *)
  List.iter
    (fun (v : Chaos.Invariant.violation) ->
      check_str "only bad-data violations" "bad-data" v.Chaos.Invariant.v_invariant)
    (Chaos.Invariant.violations inv);
  check "exactly one bad-data verdict" true
    (List.length (Chaos.Invariant.violations inv) = 1);
  (* The worst residual points at the attacked site's feeder. *)
  (match Chaos.Invariant.estimator_last inv with
  | Some r ->
      check_str "worst residual names the attacked feeder" "mw.SUB-002/B00"
        r.Chaos.Estimator.est_worst_point
  | None -> Alcotest.fail "no estimator report")

let test_cross_shard_feeds_read_unknown () =
  let scenario =
    {
      Plc.Power.scenario_name = "cross";
      plcs =
        [
          { Plc.Power.plc_name = "P0"; breaker_names = [ "X0"; "X1" ]; physical = false };
          { Plc.Power.plc_name = "P1"; breaker_names = [ "Y0" ]; physical = false };
        ];
      feeds =
        [
          { Plc.Power.load_name = "L-local"; path = [ "X0" ] };
          (* First path breaker on P0, second on P1: with 2 shards the
             feed lands in P0's shard but crosses into P1's. *)
          { Plc.Power.load_name = "L-cross"; path = [ "X1"; "Y0" ] };
        ];
    }
  in
  let map = Scada.Shard.create ~shards:2 scenario in
  let sub = Scada.Shard.sub_scenario map 0 in
  check "cross-shard feed owned by shard 0" true
    (List.exists
       (fun (f : Plc.Power.feed) -> String.equal f.Plc.Power.load_name "L-cross")
       sub.Plc.Power.feeds);
  let s = Scada.State.create sub in
  let tri name = List.assoc name (Scada.State.energized_tri s) in
  check "local feed energized" true (tri "L-local" = `Energized);
  (* The old boolean view read the foreign breaker conservatively open
     and reported the cross-shard load dark; the overview must say it
     cannot see that segment instead. *)
  check "cross-shard feed is unknown, not dark" true (tri "L-cross" = `Unknown);
  check "boolean view still conservative" true
    (List.assoc "L-cross" (Scada.State.energized s) = false);
  (* A known-open local breaker still proves dark. *)
  ignore
    (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "X1"; closed = false }));
  check "known-open prefix proves de-energized" true (tri "L-cross" = `De_energized)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_solution_deterministic;
    ("cascade same-seed rerun byte-identical", `Quick, test_cascade_deterministic);
    ("islanding sheds exactly the dark load", `Quick, test_islanding_sheds_load);
    ("inverse-time trip delay follows formula", `Quick, test_inverse_time_trip_delay);
    ("pending trip cancelled on recovery", `Quick, test_trip_cancelled_on_recovery);
    ("chi-square false-positive control", `Quick, test_chi2_false_positive_control);
    ("fdia detected by chi-square only", `Quick, test_fdia_detected_by_chi2_only);
    ("cross-shard feeds read unknown", `Quick, test_cross_shard_feeds_read_unknown);
  ]

let () = Alcotest.run "power" [ ("power", suite) ]
