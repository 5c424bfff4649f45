(* Integration tests: the full Spire deployment (replicas, dual Spines
   networks, proxies, PLCs, HMIs) and the commercial baseline, end to
   end inside the simulator. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A compact scenario keeps integration tests fast: one physical PLC with
   three breakers and one two-breaker feed. *)
let mini_scenario =
  {
    Plc.Power.scenario_name = "mini";
    plcs = [ { Plc.Power.plc_name = "MAIN"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true } ];
    feeds = [ { Plc.Power.load_name = "Building-A"; path = [ "B10-1"; "B57" ] } ];
  }

let make_spire ?(config = Prime.Config.create ~f:1 ~k:0 ()) ?(hardened = true)
    ?(scenario = mini_scenario) ?dnp3_plcs () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let d = Spire.Deployment.create ~hardened ?dnp3_plcs ~engine ~trace ~config scenario in
  (engine, d)

let run engine ~until = Sim.Engine.run ~until engine

let hmi d = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi

let main_breaker d name =
  match Spire.Deployment.find_breaker d name with
  | Some (_, b) -> b
  | None -> Alcotest.fail ("breaker not found: " ^ name)

let master_states d =
  Array.to_list
    (Array.map
       (fun r -> Scada.State.digest (Scada.Master.state r.Spire.Deployment.r_master))
       (Spire.Deployment.replicas d))

(* --- Spire end-to-end -------------------------------------------------------- *)

let test_status_propagates_to_hmi () =
  let engine, d = make_spire () in
  run engine ~until:3.0;
  (* Everything starts closed; the HMI should know that. *)
  Alcotest.(check (option bool)) "initially closed" (Some true)
    (Scada.Hmi.displayed_closed (hmi d) "B57");
  (* A field event: the breaker opens physically. *)
  Plc.Breaker.force (main_breaker d "B57") Plc.Breaker.Open;
  run engine ~until:6.0;
  Alcotest.(check (option bool)) "hmi sees it open" (Some false)
    (Scada.Hmi.displayed_closed (hmi d) "B57");
  (* All masters hold identical state. *)
  (match master_states d with
  | first :: rest -> List.iter (fun s -> Alcotest.(check string) "states agree" first s) rest
  | [] -> Alcotest.fail "no masters")

let test_command_actuates_breaker () =
  let engine, d = make_spire () in
  run engine ~until:3.0;
  check "starts closed" true (Plc.Breaker.is_closed (main_breaker d "B10-1"));
  ignore (Scada.Hmi.command (hmi d) ~breaker:"B10-1" ~close:false);
  run engine ~until:8.0;
  check "breaker opened by supervisory command" false
    (Plc.Breaker.is_closed (main_breaker d "B10-1"));
  Alcotest.(check (option bool)) "hmi reflects it" (Some false)
    (Scada.Hmi.displayed_closed (hmi d) "B10-1");
  (* The energized computation follows. *)
  let loads = Scada.Hmi.energized_loads (hmi d) in
  Alcotest.(check (list (pair string bool))) "building dark" [ ("Building-A", false) ] loads

let test_single_master_cannot_actuate () =
  (* A compromised master alone sends a forged command directly to the
     proxy; the f + 1 threshold must hold the line, whichever field
     protocol the site speaks. *)
  List.iter
    (fun dnp3_plcs ->
      let engine, d = make_spire ~dnp3_plcs () in
      run engine ~until:3.0;
      let r0 = (Spire.Deployment.replicas d).(0) in
      let proxy = (Spire.Deployment.proxies d).(0).Spire.Deployment.p_proxy in
      let body =
        Scada.Messages.encode_breaker_command ~rep:0 ~exec_seq:9999 ~breaker:"B57" ~close:false
      in
      let forged =
        Scada.Messages.Breaker_command
          {
            bc_rep = 0;
            bc_exec_seq = 9999;
            bc_breaker = "B57";
            bc_close = false;
            bc_sig = Crypto.Signature.sign r0.Spire.Deployment.r_keypair body;
          }
      in
      (* Deliver it straight to the proxy several times (replay included). *)
      for _ = 1 to 5 do
        Scada.Proxy.handle_payload proxy (Scada.Messages.Scada_msg forged)
      done;
      run engine ~until:6.0;
      check "breaker still closed" true (Plc.Breaker.is_closed (main_breaker d "B57"));
      check_int "gate never crossed" 0
        (Sim.Stats.Counter.get (Scada.Proxy.counters proxy) "command.actuated"))
    [ []; [ "MAIN" ] ]

let test_replica_crash_transparent () =
  let engine, d = make_spire () in
  run engine ~until:3.0;
  Spire.Deployment.take_down_replica d 2;
  ignore (Scada.Hmi.command (hmi d) ~breaker:"B56" ~close:false);
  run engine ~until:10.0;
  check "command executed with one replica down" false
    (Plc.Breaker.is_closed (main_breaker d "B56"))

let test_proactive_recovery_cycle () =
  let config = Prime.Config.power_plant () in
  let engine, d = make_spire ~config () in
  run engine ~until:3.0;
  (* Take replica 3 through a full recovery while traffic flows. *)
  Spire.Deployment.take_down_replica d 3;
  ignore (Scada.Hmi.command (hmi d) ~breaker:"B57" ~close:false);
  run engine ~until:8.0;
  check "command executed during recovery" false
    (Plc.Breaker.is_closed (main_breaker d "B57"));
  Spire.Deployment.bring_up_replica_clean d 3;
  ignore (Scada.Hmi.command (hmi d) ~breaker:"B57" ~close:true);
  run engine ~until:25.0;
  check "command executed after recovery" true (Plc.Breaker.is_closed (main_breaker d "B57"));
  (* The recovered master converged to the same state as the others. *)
  match master_states d with
  | first :: rest -> List.iter (fun s -> Alcotest.(check string) "converged" first s) rest
  | [] -> Alcotest.fail "no masters"

(* Tiny replication log: replica 3 misses more updates than the log
   retains, so it must recover through the masters' application-level
   state transfer protocol (Section III-A), end to end over the real
   Spines networks. The run is younger than one checkpoint interval, so
   no master holds a checkpoint when it asks. *)
let young_run_rejoin () =
  let config = Prime.Config.create ~f:1 ~k:0 ~log_retention:8 () in
  let engine, d = make_spire ~config () in
  run engine ~until:3.0;
  Spire.Deployment.take_down_replica d 3;
  (* More field changes than the log retains. *)
  for i = 1 to 12 do
    ignore
      (Sim.Engine.schedule engine ~delay:(3.0 +. (0.6 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B57")))
  done;
  run engine ~until:12.0;
  Spire.Deployment.bring_up_replica_clean d 3;
  (* Keep some traffic flowing so the gap is visible. *)
  for i = 1 to 6 do
    ignore
      (Sim.Engine.schedule engine ~delay:(12.5 +. (2.0 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B56")))
  done;
  run engine ~until:40.0;
  (engine, d)

let test_application_state_transfer_between_masters () =
  let engine, d = young_run_rejoin () in
  let r3 = (Spire.Deployment.replicas d).(3) in
  check "application transfer completed" true
    (Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
       "transfer.completed"
     >= 1);
  (* The recovered master converged on the same state as the others. *)
  (match master_states d with
  | first :: rest -> List.iter (fun st -> Alcotest.(check string) "states agree" first st) rest
  | [] -> Alcotest.fail "no masters");
  (* And it follows new changes normally afterwards. *)
  Plc.Breaker.force (main_breaker d "B10-1") Plc.Breaker.Open;
  run engine ~until:45.0;
  check "recovered master tracks new changes" false
    (Scada.State.reported_closed (Scada.Master.state r3.Spire.Deployment.r_master) "B10-1")

let test_ground_truth_rebuild () =
  let engine, d = make_spire () in
  run engine ~until:3.0;
  (* Field reality diverges while the system is reset: breakers move. *)
  Plc.Breaker.force (main_breaker d "B10-1") Plc.Breaker.Open;
  Plc.Breaker.force (main_breaker d "B56") Plc.Breaker.Open;
  (* Assumption breach: all replicas lose their state simultaneously. *)
  Spire.Deployment.ground_truth_reset d;
  run engine ~until:10.0;
  (* The masters rebuilt their view from the field devices. *)
  let r0 = (Spire.Deployment.replicas d).(0) in
  let state = Scada.Master.state r0.Spire.Deployment.r_master in
  check "B10-1 rebuilt as open" false (Scada.State.reported_closed state "B10-1");
  check "B56 rebuilt as open" false (Scada.State.reported_closed state "B56");
  check "B57 rebuilt as closed" true (Scada.State.reported_closed state "B57");
  Alcotest.(check (option bool)) "hmi rebuilt too" (Some false)
    (Scada.Hmi.displayed_closed (hmi d) "B10-1")

let test_breaker_cycle_driver () =
  let engine, d = make_spire () in
  let driver = Spire.Scenario_driver.create d in
  run engine ~until:2.0;
  Spire.Scenario_driver.start driver ~period:1.0;
  run engine ~until:12.0;
  Spire.Scenario_driver.stop driver;
  check "commands were issued" true (Spire.Scenario_driver.commands_issued driver >= 9);
  run engine ~until:15.0;
  (* Display and field agree for every breaker at quiescence. *)
  List.iter
    (fun name ->
      let field = Plc.Breaker.is_closed (main_breaker d name) in
      Alcotest.(check (option bool)) ("agree on " ^ name) (Some field)
        (Scada.Hmi.displayed_closed (hmi d) name))
    [ "B10-1"; "B57"; "B56" ]

(* --- reaction-time measurement (Section V) ------------------------------------ *)

let test_reaction_time_spire_vs_commercial () =
  let engine, d = make_spire () in
  run engine ~until:3.0;
  let spire_stats, spire_done =
    Spire.Measure.spire_reaction_time ~deployment:d ~breaker:"B57" ~samples:10 ~gap:2.0 ()
  in
  run engine ~until:30.0;
  check_int "all spire samples measured" 10 !spire_done;
  (* Commercial system in its own simulation. *)
  let engine2 = Sim.Engine.create () in
  let trace2 = Sim.Trace.create () in
  let c = Spire.Commercial.create ~engine:engine2 ~trace:trace2 mini_scenario in
  Sim.Engine.run ~until:3.0 engine2;
  let comm_stats, comm_done =
    Spire.Measure.commercial_reaction_time ~engine:engine2 ~commercial:c ~breaker:"B57"
      ~samples:10 ~gap:2.0 ()
  in
  Sim.Engine.run ~until:30.0 engine2;
  check_int "all commercial samples measured" 10 !comm_done;
  let spire_mean = Sim.Stats.Summary.mean spire_stats in
  let comm_mean = Sim.Stats.Summary.mean comm_stats in
  check "spire latency positive" true (spire_mean > 0.0);
  check "spire meets sub-second requirement" true (spire_mean < 1.0);
  (* The paper's result: Spire reflected changes faster than the
     commercial system. *)
  check "spire faster than commercial" true (spire_mean < comm_mean)

(* Telemetry must only watch: one plant, twenty flips, run dark and then
   with every pipeline mark recorded, must react identically. *)
let test_registry_is_passive () =
  let flips = 20 in
  let run_once () =
    let engine, d = make_spire () in
    run engine ~until:3.0;
    let repaints = ref [] in
    Scada.Hmi.on_display_change (hmi d) (fun ~breaker ~closed ->
        repaints := (Sim.Engine.now engine, breaker, closed) :: !repaints);
    let stats, completed =
      Spire.Measure.spire_reaction_time ~deployment:d ~breaker:"B57" ~samples:flips ~gap:2.0 ()
    in
    run engine ~until:50.0;
    let exec_seqs =
      Array.to_list
        (Array.map
           (fun r -> Prime.Replica.exec_seq r.Spire.Deployment.r_replica)
           (Spire.Deployment.replicas d))
    in
    ( List.rev !repaints,
      Sim.Stats.Summary.to_json stats,
      Sim.Stats.Summary.mean stats,
      exec_seqs,
      !completed )
  in
  let reg = Obs.Registry.default in
  let off = run_once () in
  let on, traced =
    Obs.Registry.with_enabled reg (fun () ->
        let on = run_once () in
        (on, Obs.Span.completed_count (Obs.Registry.spans reg)))
  in
  let repaints_off, json_off, mean_off, seqs_off, done_off = off in
  let repaints_on, json_on, mean_on, seqs_on, done_on = on in
  check_int "every flip reflected" flips done_off;
  check "registry recorded the flips" true (traced >= flips);
  check "repaint times identical" true (repaints_off = repaints_on);
  Alcotest.(check string) "reaction samples identical" json_off json_on;
  check "mean bit-identical" true (Float.equal mean_off mean_on);
  Alcotest.(check (list int)) "final exec seqs identical" seqs_off seqs_on;
  check_int "completed flips identical" done_off done_on

(* --- commercial baseline ------------------------------------------------------- *)

let test_commercial_basics () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let c = Spire.Commercial.create ~engine ~trace mini_scenario in
  Sim.Engine.run ~until:3.0 engine;
  Alcotest.(check (option bool)) "display populated" (Some true)
    (Spire.Commercial.displayed_closed c "B57");
  (* Field change propagates. *)
  (match Spire.Commercial.find_breaker c "B57" with
  | Some b -> Plc.Breaker.force b Plc.Breaker.Open
  | None -> Alcotest.fail "breaker missing");
  Sim.Engine.run ~until:6.0 engine;
  Alcotest.(check (option bool)) "field change displayed" (Some false)
    (Spire.Commercial.displayed_closed c "B57");
  (* Operator command actuates. *)
  Spire.Commercial.hmi_command c ~breaker:"B57" ~close:true;
  Sim.Engine.run ~until:9.0 engine;
  match Spire.Commercial.find_breaker c "B57" with
  | Some b -> check "closed again" true (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker missing"

let test_commercial_failover () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let c = Spire.Commercial.create ~engine ~trace mini_scenario in
  Sim.Engine.run ~until:3.0 engine;
  Spire.Commercial.fail_primary c;
  Sim.Engine.run ~until:10.0 engine;
  check "backup took over" true
    (Sim.Stats.Counter.get (Spire.Commercial.counters c) "failover" = 1);
  (* The backup keeps the HMI updated. *)
  (match Spire.Commercial.find_breaker c "B56" with
  | Some b -> Plc.Breaker.force b Plc.Breaker.Open
  | None -> Alcotest.fail "breaker missing");
  Sim.Engine.run ~until:15.0 engine;
  Alcotest.(check (option bool)) "display updated by backup" (Some false)
    (Spire.Commercial.displayed_closed c "B56")

(* --- power-plant scenario sanity ------------------------------------------------ *)

let test_power_plant_scenario_shape () =
  let s = Plc.Power.power_plant in
  check_int "17 plcs (1 physical + 10 dist + 6 gen)" 17 (List.length s.Plc.Power.plcs);
  check_int "total breakers" (3 + 30 + 12) (Plc.Power.total_breakers s);
  let r = Plc.Power.red_team in
  check_int "red team plcs" 11 (List.length r.Plc.Power.plcs);
  check_int "red team breakers" 37 (Plc.Power.total_breakers r);
  (* Energization logic. *)
  let closed = fun _ -> true in
  let all_on = Plc.Power.energized r ~is_closed:closed in
  check "all loads energized when everything closed" true (List.for_all snd all_on);
  let b57_open = fun name -> not (String.equal name "B57") in
  let with_open = Plc.Power.energized r ~is_closed:b57_open in
  check "Building-A dark without B57" true
    (List.assoc "Building-A" with_open = false);
  check "Building-B unaffected" true (List.assoc "Building-B" with_open = true)

(* --- sharded grid ------------------------------------------------------------- *)

let test_grid_sharded_end_to_end () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.create ~f:1 ~k:0 () in
  (* Four substation sites, two per shard. *)
  let per_site = Plc.Power.per_site in
  let scenario = Plc.Power.synthetic ~devices:(4 * per_site) () in
  let g = Spire.Grid.create ~engine ~trace ~config ~shards:2 scenario in
  run engine ~until:3.0;
  check_int "two shards" 2 (Spire.Grid.shard_count g);
  (* Grid-wide overview: one aggregated query per shard, each accepted
     only with f + 1 replica agreement on the state digest. *)
  let ov = Spire.Grid.overview g in
  check_int "overview rows" 2 (List.length ov);
  List.iter
    (fun row -> check ("agreed " ^ row.Spire.Grid.o_label) true row.Spire.Grid.o_agreed)
    ov;
  let closed_of i = (List.nth ov i).Spire.Grid.o_closed in
  check_int "all breakers closed initially" (4 * per_site) (closed_of 0 + closed_of 1);
  (* A field event is visible through the owning shard only. *)
  (match Spire.Grid.find_breaker g "SUB-001/B00" with
  | Some (_, b) -> Plc.Breaker.force b Plc.Breaker.Open
  | None -> Alcotest.fail "breaker not found");
  run engine ~until:6.0;
  let ov = Spire.Grid.overview g in
  let closed_of i = (List.nth ov i).Spire.Grid.o_closed in
  check_int "shard 0 untouched" (2 * per_site) (closed_of 0);
  check_int "shard 1 sees the open breaker" ((2 * per_site) - 1) (closed_of 1);
  let d1 = Spire.Grid.deployment g 1 in
  Alcotest.(check (option bool)) "shard hmi sees it open" (Some false)
    (Scada.Hmi.displayed_closed
       (Spire.Deployment.hmis d1).(0).Spire.Deployment.h_hmi
       "SUB-001/B00");
  (* Supervisory commands route by the shard map and actuate end to end. *)
  (match Spire.Grid.route_command g ~breaker:"SUB-002/B01" ~close:false with
  | Ok s ->
      check_int "routed to owning shard"
        (Option.get (Scada.Shard.shard_of_breaker (Spire.Grid.map g) "SUB-002/B01"))
        s
  | Error e -> Alcotest.fail e);
  run engine ~until:12.0;
  (match Spire.Grid.find_breaker g "SUB-002/B01" with
  | Some (_, b) -> check "routed command actuated" false (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker not found");
  check "unknown breaker rejected" true
    (match Spire.Grid.route_command g ~breaker:"NOPE" ~close:true with
    | Error _ -> true
    | Ok _ -> false);
  (* Both shards made independent ordering progress. *)
  check "frontiers advanced" true
    (Spire.Grid.exec_frontier g 0 > 0 && Spire.Grid.exec_frontier g 1 > 0)

let test_grid_shard_crash_isolated () =
  (* A replica crash inside one shard must not disturb the other shard's
     agreement or its ability to execute commands. *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let scenario = Plc.Power.synthetic ~devices:(4 * Plc.Power.per_site) () in
  let g = Spire.Grid.create ~engine ~trace ~config ~shards:2 scenario in
  run engine ~until:3.0;
  Spire.Deployment.take_down_replica (Spire.Grid.deployment g 0) 1;
  (match Spire.Grid.route_command g ~breaker:"SUB-000/B00" ~close:false with
  | Ok 0 -> ()
  | Ok s -> Alcotest.failf "routed to shard %d" s
  | Error e -> Alcotest.fail e);
  (match Spire.Grid.route_command g ~breaker:"SUB-001/B01" ~close:false with
  | Ok 1 -> ()
  | Ok s -> Alcotest.failf "routed to shard %d" s
  | Error e -> Alcotest.fail e);
  run engine ~until:12.0;
  (match Spire.Grid.find_breaker g "SUB-000/B00" with
  | Some (_, b) ->
      check "degraded shard still actuates" false (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker not found");
  (match Spire.Grid.find_breaker g "SUB-001/B01" with
  | Some (_, b) -> check "healthy shard actuates" false (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker not found");
  List.iter
    (fun row -> check ("agreed " ^ row.Spire.Grid.o_label) true row.Spire.Grid.o_agreed)
    (Spire.Grid.overview g)

(* A display change leaves each replica once, for the HMI group, however
   many HMIs attach; every HMI still repaints from f + 1 signed pushes. *)
let test_one_display_push_per_replica () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let d = Spire.Deployment.create ~n_hmis:3 ~engine ~trace ~config mini_scenario in
  run engine ~until:3.0;
  let counts () =
    Array.map
      (fun r ->
        let get c name = Sim.Stats.Counter.get c name in
        ( get (Spines.Node.counters r.Spire.Deployment.r_external_node) "send",
          get (Prime.Replica.counters r.Spire.Deployment.r_replica) "executed",
          get (Scada.Master.counters r.Spire.Deployment.r_master) "apply.batch" ))
      (Spire.Deployment.replicas d)
  in
  let before = counts () in
  (* Two breakers open before the next poll: one batch op, two changes. *)
  Plc.Breaker.force (main_breaker d "B57") Plc.Breaker.Open;
  Plc.Breaker.force (main_breaker d "B56") Plc.Breaker.Open;
  run engine ~until:4.0;
  Array.iteri
    (fun i (sends, executed, batches) ->
      let sends0, executed0, batches0 = before.(i) in
      check_int (Printf.sprintf "replica %d applied one batch" i) 1 (batches - batches0);
      (* Besides the one push, the external daemon originates only the
         replica's reply to each update it executed. *)
      check_int (Printf.sprintf "replica %d pushed once" i) 1
        (sends - sends0 - (executed - executed0)))
    (counts ());
  Array.iter
    (fun h ->
      List.iter
        (fun breaker ->
          Alcotest.(check (option bool))
            (Printf.sprintf "%s shows %s open" (Scada.Hmi.name h.Spire.Deployment.h_hmi) breaker)
            (Some false)
            (Scada.Hmi.displayed_closed h.Spire.Deployment.h_hmi breaker))
        [ "B57"; "B56" ])
    (Spire.Deployment.hmis d)

let test_full_red_team_scenario_boots () =
  (* The complete red-team topology: 11 proxies, 37 breakers, 4 replicas. *)
  let engine, d = make_spire ~scenario:Plc.Power.red_team () in
  run engine ~until:5.0;
  (* Every master converged on the full field state. *)
  (match master_states d with
  | first :: rest -> List.iter (fun s -> Alcotest.(check string) "states agree" first s) rest
  | [] -> Alcotest.fail "no masters");
  (* A distribution-substation breaker command works end to end. *)
  ignore (Scada.Hmi.command (hmi d) ~breaker:"DIST-03/B1" ~close:false);
  run engine ~until:12.0;
  check "remote substation breaker opened" false
    (Plc.Breaker.is_closed (main_breaker d "DIST-03/B1"))

(* With no checkpoint yet, the peers answer with one built on demand from
   their current state; the rejoiner adopts it through the durable store,
   so it ends with a checkpoint on disk and counts the bytes it took. *)
let test_young_run_rejoiner_adopts_on_demand_checkpoint () =
  let _engine, d = young_run_rejoin () in
  let r3 = (Spire.Deployment.replicas d).(3) in
  let durable = Spire.Deployment.durable d 3 in
  check "peer checkpoint installed" true
    (Sim.Stats.Counter.get (Scada.Durable.counters durable) "durable.peer_install" >= 1);
  check "checkpoint on disk" true (Scada.Durable.latest_checkpoint durable <> None);
  check "transfer bytes counted" true
    (Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
       "transfer.bytes_received"
     > 0);
  match master_states d with
  | first :: rest -> List.iter (fun st -> Alcotest.(check string) "states agree" first st) rest
  | [] -> Alcotest.fail "no masters"

(* The HMI's f + 1 display gate: a cell repaints only once f + 1 distinct
   replicas push the same change set for the same execution point. *)
let test_hmi_repaints_only_on_matching_pushes () =
  let _engine, d = make_spire () in
  let h = hmi d in
  let replicas = Spire.Deployment.replicas d in
  let push ?signer rep ~exec_seq changes =
    let keypair = replicas.(Option.value signer ~default:rep).Spire.Deployment.r_keypair in
    let body = Scada.Messages.encode_hmi_batch ~rep ~exec_seq ~changes in
    Scada.Hmi.handle_payload h
      (Scada.Messages.Scada_msg
         (Scada.Messages.Hmi_batch
            { hb_rep = rep; hb_exec_seq = exec_seq; hb_changes = changes;
              hb_sig = Crypto.Signature.sign keypair body }))
  in
  let shown () = Scada.Hmi.displayed_closed h "B57" in
  let counter name = Sim.Stats.Counter.get (Scada.Hmi.counters h) name in
  push 0 ~exec_seq:10 [ ("B57", false) ];
  Alcotest.(check (option bool)) "a lone push does not repaint" (Some true) (shown ());
  push 1 ~exec_seq:10 [ ("B57", false); ("B56", false) ];
  Alcotest.(check (option bool)) "a divergent push does not repaint" (Some true) (shown ());
  push 2 ~exec_seq:10 [ ("B57", false) ];
  Alcotest.(check (option bool)) "a matching push repaints" (Some false) (shown ());
  Alcotest.(check (option bool)) "the divergent change stays out" (Some true)
    (Scada.Hmi.displayed_closed h "B56");
  let bad_sig = counter "display.bad_sig" in
  push ~signer:0 3 ~exec_seq:11 [ ("B57", true) ];
  check_int "a forged signature is counted" (bad_sig + 1) (counter "display.bad_sig");
  push 0 ~exec_seq:11 [ ("B57", true) ];
  Alcotest.(check (option bool)) "the forged vote does not count" (Some false) (shown ());
  push 1 ~exec_seq:5 [ ("B57", true) ];
  push 2 ~exec_seq:5 [ ("B57", true) ];
  Alcotest.(check (option bool)) "an older exec_seq is ignored" (Some false) (shown ());
  check_int "one repaint" 1 (counter "display.changed")

let suite =
  [
    ("status propagates to hmi", `Quick, test_status_propagates_to_hmi);
    ("command actuates breaker", `Quick, test_command_actuates_breaker);
    ("single master cannot actuate", `Quick, test_single_master_cannot_actuate);
    ("replica crash transparent", `Quick, test_replica_crash_transparent);
    ("proactive recovery cycle", `Quick, test_proactive_recovery_cycle);
    ("application state transfer between masters", `Slow,
      test_application_state_transfer_between_masters);
    ("ground truth rebuild", `Quick, test_ground_truth_rebuild);
    ("breaker cycle driver", `Quick, test_breaker_cycle_driver);
    ("reaction time spire vs commercial", `Slow, test_reaction_time_spire_vs_commercial);
    ("registry is passive", `Quick, test_registry_is_passive);
    ("commercial basics", `Quick, test_commercial_basics);
    ("commercial failover", `Quick, test_commercial_failover);
    ("power plant scenario shape", `Quick, test_power_plant_scenario_shape);
    ("full red team scenario boots", `Slow, test_full_red_team_scenario_boots);
    ("grid sharded end to end", `Quick, test_grid_sharded_end_to_end);
    ("grid shard crash isolated", `Quick, test_grid_shard_crash_isolated);
    ("one display push per replica", `Quick, test_one_display_push_per_replica);
    ("young-run rejoiner adopts an on-demand checkpoint", `Slow,
      test_young_run_rejoiner_adopts_on_demand_checkpoint);
    ("hmi repaints only on f + 1 matching pushes", `Quick,
      test_hmi_repaints_only_on_matching_pushes);
  ]

let () = Alcotest.run "core" [ ("core", suite) ]
