(* spire_cli: command-line front end for the Spire reproduction.

     dune exec bin/spire_cli.exe -- redteam
     dune exec bin/spire_cli.exe -- latency --samples 100 --poll 0.05
     dune exec bin/spire_cli.exe -- plant --minutes 30 --rotation 300
     dune exec bin/spire_cli.exe -- breach --craft-days 3 --recovery-days 2
*)

open Cmdliner

let fresh_world () = (Sim.Engine.create (), Sim.Trace.create ())

let mini_scenario =
  {
    Plc.Power.scenario_name = "cli-mini";
    plcs =
      [ { Plc.Power.plc_name = "MAIN"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true } ];
    feeds = [ { Plc.Power.load_name = "Building-A"; path = [ "B10-1"; "B57" ] } ];
  }

(* --- redteam ----------------------------------------------------------------- *)

let redteam full =
  let engine, trace = fresh_world () in
  let scenario = if full then Plc.Power.red_team else mini_scenario in
  let tb = Attack.Testbed.create ~scenario ~engine ~trace () in
  let print title steps =
    Printf.printf "\n== %s ==\n" title;
    List.iter (fun s -> Format.printf "%a@." Attack.Campaign.pp_step s) steps
  in
  print "Commercial SCADA" (Attack.Campaign.run_commercial tb);
  print "Spire: network attacks" (Attack.Campaign.run_spire_network tb);
  print "Spire: replica excursion" (Attack.Campaign.run_excursion tb)

let redteam_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Use the full 11-PLC red-team topology.")
  in
  Cmd.v
    (Cmd.info "redteam" ~doc:"Run the Section IV red-team campaign against both systems.")
    Term.(const redteam $ full)

(* --- latency ------------------------------------------------------------------ *)

let latency samples poll gap json_file =
  let pr name stats completed =
    Printf.printf "%-24s %3d/%d samples  mean %7.1f ms  p50 %7.1f ms  p99 %7.1f ms\n" name
      completed samples
      (1000.0 *. Sim.Stats.Summary.mean stats)
      (1000.0 *. Sim.Stats.Summary.median stats)
      (1000.0 *. Sim.Stats.Summary.percentile stats 99.0)
  in
  let horizon = 5.0 +. (gap *. float_of_int (samples + 4)) in
  let engine, trace = fresh_world () in
  let config = Prime.Config.power_plant () in
  let deployment =
    Spire.Deployment.create ~proxy_poll_period:poll ~engine ~trace ~config mini_scenario
  in
  Sim.Engine.run ~until:5.0 engine;
  let stats, done_ =
    Spire.Measure.spire_reaction_time ~deployment ~breaker:"B57" ~samples ~gap ()
  in
  Sim.Engine.run ~until:horizon engine;
  pr "Spire (6 replicas)" stats !done_;
  let engine2, trace2 = fresh_world () in
  let commercial = Spire.Commercial.create ~engine:engine2 ~trace:trace2 mini_scenario in
  Sim.Engine.run ~until:5.0 engine2;
  let cstats, cdone =
    Spire.Measure.commercial_reaction_time ~engine:engine2 ~commercial ~breaker:"B57" ~samples
      ~gap ()
  in
  Sim.Engine.run ~until:horizon engine2;
  pr "Commercial" cstats !cdone;
  Printf.printf "\nSpire is %.2fx faster (mean).\n"
    (Sim.Stats.Summary.mean cstats /. Sim.Stats.Summary.mean stats);
  match json_file with
  | None -> ()
  | Some file ->
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "spire-cli-latency/1");
            ("samples", Obs.Json.Num (float_of_int samples));
            ("poll_period", Obs.Json.Num poll);
            ("spire", Obs.Export.summary_to_json stats);
            ("spire_completed", Obs.Json.Num (float_of_int !done_));
            ("commercial", Obs.Export.summary_to_json cstats);
            ("commercial_completed", Obs.Json.Num (float_of_int !cdone));
            ( "mean_ratio",
              Obs.Json.Num (Sim.Stats.Summary.mean cstats /. Sim.Stats.Summary.mean stats) );
          ]
      in
      (match open_out file with
      | exception Sys_error msg ->
          Printf.eprintf "cannot write %s: %s\n" file msg;
          exit 1
      | oc ->
          output_string oc (Obs.Json.to_string_pretty doc);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote %s\n%!" file)

let latency_cmd =
  let samples =
    Arg.(value & opt int 50 & info [ "samples" ] ~doc:"Number of breaker flips to time.")
  in
  let poll =
    Arg.(value & opt float 0.1 & info [ "poll" ] ~doc:"Spire proxy polling period (seconds).")
  in
  let gap = Arg.(value & opt float 1.5 & info [ "gap" ] ~doc:"Seconds between flips.") in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_latency_cli.json") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write latency summaries as JSON to $(docv) (defaults to BENCH_latency_cli.json \
             when given without a value).")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Measure breaker-flip-to-HMI reaction time (Section V).")
    Term.(const latency $ samples $ poll $ gap $ json)

(* --- plant -------------------------------------------------------------------- *)

let plant minutes rotation =
  let engine, trace = fresh_world () in
  let config = Prime.Config.power_plant () in
  let scenario = Plc.Power.power_plant in
  let deployment =
    Spire.Deployment.create ~n_hmis:3 ~proxy_poll_period:0.25 ~engine ~trace ~config scenario
  in
  Sim.Engine.run ~until:5.0 engine;
  let rng = Sim.Engine.split_rng engine in
  let recovery =
    Diversity.Recovery.create ~engine ~trace ~rng ~n:config.Prime.Config.n
      ~rotation_period:rotation ~downtime:(Float.min 30.0 (rotation /. 3.0))
      ~disk_policy:Diversity.Recovery.Alternate
      ~take_down:(fun i -> Spire.Deployment.take_down_replica deployment i)
      ~bring_up:(fun i _ ~disk ->
        match disk with
        | Diversity.Recovery.Disk_wiped -> Spire.Deployment.bring_up_replica_clean deployment i
        | Diversity.Recovery.Disk_intact -> Spire.Deployment.bring_up_replica_intact deployment i)
      ()
  in
  Diversity.Recovery.start recovery;
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:5.0;
  Printf.printf "Running %d simulated minutes (rotation every %.0f s)...\n%!" minutes rotation;
  Sim.Engine.run ~until:(float_of_int minutes *. 60.0) engine;
  Spire.Scenario_driver.stop driver;
  Diversity.Recovery.stop recovery;
  Printf.printf "recoveries: %d, commands: %d, executed: %d\n"
    (Diversity.Recovery.recoveries recovery)
    (Spire.Scenario_driver.commands_issued driver)
    (Prime.Replica.exec_seq
       (Spire.Deployment.replicas deployment).(0).Spire.Deployment.r_replica);
  let digests =
    Array.map
      (fun r -> Scada.State.digest (Scada.Master.state r.Spire.Deployment.r_master))
      (Spire.Deployment.replicas deployment)
  in
  Printf.printf "all masters agree: %b\n"
    (Array.for_all (fun d -> String.equal d digests.(0)) digests)

let plant_cmd =
  let minutes =
    Arg.(value & opt int 20 & info [ "minutes" ] ~doc:"Simulated minutes to run.")
  in
  let rotation =
    Arg.(value & opt float 300.0 & info [ "rotation" ] ~doc:"Proactive recovery period (s).")
  in
  Cmd.v
    (Cmd.info "plant" ~doc:"Run the Section V power-plant deployment.")
    Term.(const plant $ minutes $ rotation)

(* --- breach ------------------------------------------------------------------- *)

let breach craft_days recovery_days horizon =
  let engine = Sim.Engine.create () in
  let rng = Sim.Engine.split_rng engine in
  let day = 86_400.0 in
  let n = 6 and f = 1 in
  let variants = Array.init n (fun _ -> Diversity.Variant.compile rng) in
  let compromised = Array.make n false in
  let breach_day = ref None in
  let rec craft () =
    let target = variants.(Sim.Rng.int rng n) in
    ignore
      (Sim.Engine.schedule engine ~delay:(craft_days *. day) (fun () ->
           let e = Diversity.Variant.Exploit.craft ~name:"x" target in
           Array.iteri
             (fun i v -> if Diversity.Variant.Exploit.works_against e v then compromised.(i) <- true)
             variants;
           let count = Array.fold_left (fun a c -> if c then a + 1 else a) 0 compromised in
           if count > f && !breach_day = None then
             breach_day := Some (Sim.Engine.now engine /. day);
           craft ()))
  in
  craft ();
  if recovery_days > 0.0 then begin
    let next = ref 0 in
    ignore
      (Sim.Engine.every engine ~period:(recovery_days *. day) (fun () ->
           variants.(!next) <- Diversity.Variant.compile rng;
           compromised.(!next) <- false;
           next := (!next + 1) mod n))
  end;
  Sim.Engine.run ~until:(horizon *. day) engine;
  match !breach_day with
  | Some d -> Printf.printf "breached on day %.1f\n" d
  | None -> Printf.printf "never breached in %.0f days\n" horizon

let breach_cmd =
  let craft =
    Arg.(value & opt float 3.0 & info [ "craft-days" ] ~doc:"Days to craft one exploit.")
  in
  let recovery =
    Arg.(
      value & opt float 2.0
      & info [ "recovery-days" ] ~doc:"Per-replica recovery period in days (0 = none).")
  in
  let horizon =
    Arg.(value & opt float 90.0 & info [ "horizon" ] ~doc:"Simulated horizon in days.")
  in
  Cmd.v
    (Cmd.info "breach" ~doc:"Diversity + proactive recovery breach simulation (Section II).")
    Term.(const breach $ craft $ recovery $ horizon)

(* --- chaos -------------------------------------------------------------------- *)

(* Multi-seed soak: hundreds of lossy-class campaigns back to back, one
   line per seed, exiting non-zero if any seed trips an invariant. The
   flight recorder stays off (observe:false) to keep the sweep fast; a
   failing seed is replayed individually with `chaos --seed N` to get
   the full dump. *)
let chaos_soak ~config ~duration ~load_period seeds =
  let failures = ref [] in
  let started = Sys.time () in
  for seed = 1 to seeds do
    let result =
      Chaos.Runner.run ~config ~seed ~duration ~load_period ~observe:false
        ~fault_class:Chaos.Fault.Lossy ()
    in
    let n_viol = List.length result.Chaos.Runner.violations in
    if n_viol > 0 then failures := (seed, result.Chaos.Runner.violations) :: !failures;
    Printf.printf "soak seed %4d: exec_seq %5d, %2d faults, %d violations%s\n%!" seed
      result.Chaos.Runner.final_exec_seq
      (List.length result.Chaos.Runner.schedule)
      n_viol
      (if n_viol > 0 then "  <-- FAIL" else "")
  done;
  let elapsed = Sys.time () -. started in
  match List.rev !failures with
  | [] ->
      Printf.printf "soak: %d lossy seeds, 0 violations (%.1f s)\n" seeds elapsed;
      0
  | fs ->
      Printf.printf "soak: %d/%d seeds VIOLATED invariants (%.1f s)\n" (List.length fs)
        seeds elapsed;
      List.iter
        (fun (seed, vs) ->
          List.iter
            (fun v ->
              Printf.printf "  seed %d t=%.2f [%s] %s\n" seed v.Chaos.Invariant.v_time
                v.Chaos.Invariant.v_invariant v.Chaos.Invariant.v_detail)
            vs)
        fs;
      1

let chaos seed duration load_period soak json_file =
  let config = Prime.Config.power_plant () in
  match soak with
  | Some seeds when seeds > 0 -> exit (chaos_soak ~config ~duration ~load_period seeds)
  | Some _ | None ->
  let result = Chaos.Runner.run ~config ~seed ~duration ~load_period () in
  Printf.printf "chaos seed %d: %.0f s, %d faults injected\n" seed duration
    (List.length result.Chaos.Runner.schedule);
  List.iter
    (fun (at, desc) -> Printf.printf "  t=%6.1f  %s\n" at desc)
    result.Chaos.Runner.schedule;
  Printf.printf "commands issued: %d, executed through seq %d (%d executions checked)\n"
    result.commands_issued result.final_exec_seq result.executions_checked;
  Printf.printf "view transitions: %d, view-change latencies: [%s] s\n"
    (List.length result.view_transitions)
    (String.concat "; " (List.map (Printf.sprintf "%.2f") result.view_change_latencies));
  Printf.printf "recovery latencies: [%s] s\n"
    (String.concat "; " (List.map (Printf.sprintf "%.2f") result.recovery_latencies));
  Printf.printf "link faults: %d dropped, %d duplicated, %d delayed (%d dedup evictions)\n"
    result.link_dropped result.link_duplicated result.link_delayed result.dedup_evictions;
  (match json_file with
  | None -> ()
  | Some file -> (
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "spire-chaos/1");
            ("result", Chaos.Runner.result_to_json result);
          ]
      in
      match open_out file with
      | exception Sys_error msg ->
          Printf.eprintf "cannot write %s: %s\n" file msg;
          exit 1
      | oc ->
          output_string oc (Obs.Json.to_string_pretty doc);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote %s\n%!" file));
  match result.violations with
  | [] -> Printf.printf "invariants: OK (0 violations)\n"
  | vs ->
      Printf.printf "invariants: %d VIOLATIONS\n" (List.length vs);
      List.iter
        (fun v ->
          Printf.printf "  t=%.2f [%s] %s\n" v.Chaos.Invariant.v_time
            v.Chaos.Invariant.v_invariant v.Chaos.Invariant.v_detail)
        vs;
      exit 1

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-schedule seed.") in
  let duration =
    Arg.(value & opt float 120.0 & info [ "duration" ] ~doc:"Chaos window in simulated seconds.")
  in
  let load_period =
    Arg.(value & opt float 1.0 & info [ "load-period" ] ~doc:"Seconds between HMI commands.")
  in
  let soak =
    Arg.(
      value
      & opt (some int) None
      & info [ "soak" ] ~docv:"SEEDS"
          ~doc:
            "Soak mode: run $(docv) consecutive seeds (1..$(docv)) of lossy-class fault \
             schedules and report per-seed invariant results; exits non-zero if any seed \
             violates an invariant.")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_chaos_cli.json") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the full chaos result as JSON to $(docv) (defaults to BENCH_chaos_cli.json \
             when given without a value).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection scenario with continuous invariant checking; exits \
          non-zero on any violation.")
    Term.(const chaos $ seed $ duration $ load_period $ soak $ json)

(* --- monitor ------------------------------------------------------------------ *)

(* Group a probe sample by the shard label suffix ("name@s03"); probes
   without a suffix land in the "" bucket, which sorts first and is
   printed as the plain global section. *)
let group_sample_by_shard sample =
  let buckets = Hashtbl.create 8 in
  List.iter
    (fun (name, metrics) ->
      let label, base =
        match String.rindex_opt name '@' with
        | Some i ->
            (String.sub name (i + 1) (String.length name - i - 1), String.sub name 0 i)
        | None -> ("", name)
      in
      let cell =
        match Hashtbl.find_opt buckets label with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.add buckets label c;
            c
      in
      cell := (base, metrics) :: !cell)
    sample;
  Hashtbl.fold (fun label cell acc -> (label, List.rev !cell) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Run a short fault-free deployment with the flight recorder, health
   probes and alert engine switched on, then report what the run can say
   about itself: a live health sample, any alarms, the tail of the
   flight log, and recorder counters. With --shards > 1 the same run
   drives a sharded grid instead: one replicated master group per shard,
   probe output grouped by shard label, and a per-shard exec frontier /
   agreement report from one aggregated query per shard. *)
let monitor duration poll tail shards devices json_file =
  if shards < 1 then begin
    Printf.eprintf "--shards must be >= 1\n";
    exit 2
  end;
  if devices < 0 then begin
    Printf.eprintf "--devices must be >= 0\n";
    exit 2
  end;
  let flight = Obs.Flight.default and probes = Obs.Probe.default in
  let prev_flight = Obs.Flight.enabled flight in
  let prev_probes = Obs.Probe.enabled probes in
  Obs.Flight.reset flight;
  Obs.Flight.set_enabled flight true;
  Obs.Probe.reset probes;
  Obs.Probe.set_enabled probes true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.reset flight;
      Obs.Flight.set_enabled flight prev_flight;
      Obs.Probe.reset probes;
      Obs.Probe.set_enabled probes prev_probes)
  @@ fun () ->
  let engine, trace = fresh_world () in
  Obs.Flight.set_clock flight (fun () -> Sim.Engine.now engine);
  let config = Prime.Config.power_plant () in
  let scenario = if devices > 0 then Plc.Power.synthetic ~devices () else mini_scenario in
  let grid =
    if shards > 1 then
      Some (Spire.Grid.create ~proxy_poll_period:poll ~engine ~trace ~config ~shards scenario)
    else None
  in
  let deployments =
    match grid with
    | Some g -> Array.map (fun s -> s.Spire.Grid.s_deployment) (Spire.Grid.shards g)
    | None ->
        [| Spire.Deployment.create ~proxy_poll_period:poll ~engine ~trace ~config scenario |]
  in
  let alert = Obs.Alert.create ~flight () in
  let sampler =
    Sim.Engine.every engine ~period:0.05 (fun () ->
        Obs.Alert.evaluate alert ~time:(Sim.Engine.now engine) (Obs.Probe.sample probes))
  in
  let drivers = Array.map Spire.Scenario_driver.create deployments in
  Array.iter (fun dr -> Spire.Scenario_driver.start dr ~period:1.0) drivers;
  Sim.Engine.run ~until:duration engine;
  Array.iter Spire.Scenario_driver.stop drivers;
  Sim.Engine.cancel_timer engine sampler;
  let sample = Obs.Probe.sample probes in
  (* Sum the scada state counters across every replica probe (shard
     suffixes included): how digest reads split between cached-root
     lookups and full recomputes, and how often a snapshot blob was
     actually re-encoded. *)
  let digest_cached, digest_recompute, serializations =
    List.fold_left
      (fun (c, r, s) (name, metrics) ->
        if String.length name >= 12 && String.equal (String.sub name 0 12) "scada.state." then
          let get k = match List.assoc_opt k metrics with Some v -> int_of_float v | None -> 0 in
          (c + get "digest_cached", r + get "digest_recompute", s + get "serialize")
        else (c, r, s))
      (0, 0, 0) sample
  in
  let alarms = Obs.Alert.alarms alert in
  let events = Obs.Flight.events flight in
  let tail_events =
    let n = List.length events in
    List.filteri (fun i _ -> i >= n - tail) events
  in
  Printf.printf
    "monitored %.0f s: %d probes, %d flight events (%d warn, %d alarm), %d alarms raised\n"
    duration (List.length sample) (Obs.Flight.total flight)
    (Obs.Flight.warn_count flight)
    (Obs.Flight.alarm_count flight)
    (Obs.Alert.alarm_count alert);
  Printf.printf "state digests: %d cached, %d recomputed; %d serializations\n" digest_cached
    digest_recompute serializations;
  List.iter
    (fun (label, entries) ->
      if String.equal label "" then Printf.printf "\n== health ==\n"
      else Printf.printf "\n== health (%s) ==\n" label;
      List.iter
        (fun (name, metrics) ->
          Printf.printf "  %-24s %s\n" name
            (String.concat "  " (List.map (fun (m, v) -> Printf.sprintf "%s=%g" m v) metrics)))
        entries)
    (group_sample_by_shard sample);
  (* Electrical overlay summary: one line per deployment, straight off
     the live net (ground truth, not the replicated telemetry image). *)
  Printf.printf "\n== power ==\n";
  Array.iteri
    (fun i d ->
      let net = Spire.Deployment.power_net d in
      Printf.printf "  net %d: %.3f Hz  served %.1f MW  shed %.1f MW  tripped lines %d\n" i
        (Power.Net.frequency_hz net) (Power.Net.served_mw net) (Power.Net.shed_mw net)
        (Power.Net.tripped_lines net))
    deployments;
  let tri_counts rows =
    List.fold_left
      (fun (e, d, u) (_, st) ->
        match st with
        | `Energized -> (e + 1, d, u)
        | `De_energized -> (e, d + 1, u)
        | `Unknown -> (e, d, u + 1))
      (0, 0, 0) rows
  in
  let overview = match grid with Some g -> Spire.Grid.overview g | None -> [] in
  if overview <> [] then begin
    Printf.printf "\n== shards ==\n";
    List.iter
      (fun r ->
        let energized, dark, unknown = tri_counts r.Spire.Grid.o_energized in
        Printf.printf
          "  %-4s exec frontier %6d  breakers %3d/%-3d closed  feeds %d lit/%d dark/%d \
           unknown  agreed %b\n"
          r.Spire.Grid.o_label r.Spire.Grid.o_exec_frontier r.Spire.Grid.o_closed
          r.Spire.Grid.o_breakers energized dark unknown r.Spire.Grid.o_agreed)
      overview
  end;
  Printf.printf "\n== alarms ==\n";
  if alarms = [] then Printf.printf "  (none)\n"
  else
    List.iter
      (fun a ->
        Printf.printf "  t=%6.2f  %-18s %s\n" a.Obs.Alert.al_time a.Obs.Alert.al_rule
          a.Obs.Alert.al_detail)
      alarms;
  Printf.printf "\n== flight tail (last %d of %d) ==\n" (List.length tail_events)
    (Obs.Flight.total flight);
  List.iter
    (fun e ->
      Printf.printf "  #%-5d t=%6.2f %-5s %-8s %-18s %s\n" e.Obs.Flight.ev_seq
        e.Obs.Flight.ev_time
        (Obs.Flight.severity_label e.Obs.Flight.ev_severity)
        e.Obs.Flight.ev_subsystem e.Obs.Flight.ev_kind e.Obs.Flight.ev_detail)
    tail_events;
  match json_file with
  | None -> ()
  | Some file -> (
      let num_i n = Obs.Json.Num (float_of_int n) in
      let commands =
        Array.fold_left (fun a dr -> a + Spire.Scenario_driver.commands_issued dr) 0 drivers
      in
      let shard_rows =
        List.map
          (fun r ->
            let energized, dark, unknown = tri_counts r.Spire.Grid.o_energized in
            Obs.Json.Obj
              [
                ("shard", num_i r.Spire.Grid.o_shard);
                ("label", Obs.Json.Str r.Spire.Grid.o_label);
                ("agreed", Obs.Json.Bool r.Spire.Grid.o_agreed);
                ("exec_frontier", num_i r.Spire.Grid.o_exec_frontier);
                ("breakers", num_i r.Spire.Grid.o_breakers);
                ("closed", num_i r.Spire.Grid.o_closed);
                ("feeds_energized", num_i energized);
                ("feeds_dark", num_i dark);
                ("feeds_unknown", num_i unknown);
              ])
          overview
      in
      let power_rows =
        Array.to_list
          (Array.mapi
             (fun i d ->
               let net = Spire.Deployment.power_net d in
               Obs.Json.Obj
                 [
                   ("net", num_i i);
                   ("frequency_hz", Obs.Json.Num (Power.Net.frequency_hz net));
                   ("served_mw", Obs.Json.Num (Power.Net.served_mw net));
                   ("shed_mw", Obs.Json.Num (Power.Net.shed_mw net));
                   ("tripped_lines", num_i (Power.Net.tripped_lines net));
                 ])
             deployments)
      in
      let doc =
        Obs.Json.Obj
          ([
             ("schema", Obs.Json.Str "spire-monitor/1");
             ("duration", Obs.Json.Num duration);
             ("health", Obs.Probe.sample_json sample);
             ("power", Obs.Json.List power_rows);
             ("alarms", Obs.Json.List (List.map Obs.Alert.alarm_to_json alarms));
             ("flight_tail", Obs.Json.List (List.map Obs.Flight.event_to_json tail_events));
             ( "counters",
               Obs.Json.Obj
                 [
                   ("flight_total", num_i (Obs.Flight.total flight));
                   ("flight_retained", num_i (Obs.Flight.retained flight));
                   ("flight_warns", num_i (Obs.Flight.warn_count flight));
                   ("flight_alarms", num_i (Obs.Flight.alarm_count flight));
                   ("alarms_raised", num_i (Obs.Alert.alarm_count alert));
                   ("probes", num_i (Obs.Probe.count probes));
                   ("commands_issued", num_i commands);
                   ("scada_digest_cached", num_i digest_cached);
                   ("scada_digest_recompute", num_i digest_recompute);
                   ("scada_serialize", num_i serializations);
                 ] );
           ]
          @ if shard_rows = [] then [] else [ ("shards", Obs.Json.List shard_rows) ])
      in
      match open_out file with
      | exception Sys_error msg ->
          Printf.eprintf "cannot write %s: %s\n" file msg;
          exit 1
      | oc ->
          output_string oc (Obs.Json.to_string_pretty doc);
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote %s\n%!" file)

let monitor_cmd =
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Simulated seconds to observe.")
  in
  let poll =
    Arg.(value & opt float 0.1 & info [ "poll" ] ~doc:"Spire proxy polling period (seconds).")
  in
  let tail =
    Arg.(value & opt int 20 & info [ "tail" ] ~doc:"Flight-log events to show from the end.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Partition the field into this many substation shards, each under its own \
             replicated master group; probe output is grouped per shard.")
  in
  let devices =
    Arg.(
      value & opt int 0
      & info [ "devices" ]
          ~doc:
            "Monitor a synthetic scenario with this many field devices (0 = the built-in \
             mini scenario).")
  in
  let json =
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_monitor_cli.json") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the health sample, alarms, flight tail and counters as JSON to $(docv) \
             (defaults to BENCH_monitor_cli.json when given without a value).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run a short observed deployment and report health probes, alarms and the flight-log \
          tail.")
    Term.(const monitor $ duration $ poll $ tail $ shards $ devices $ json)

let main =
  Cmd.group
    (Cmd.info "spire_cli" ~version:"1.0"
       ~doc:"Spire intrusion-tolerant SCADA reproduction (DSN 2019).")
    [ redteam_cmd; latency_cmd; plant_cmd; breach_cmd; chaos_cmd; monitor_cmd ]

let () = exit (Cmd.eval main)
