(* MANA in isolation: train on a baseline capture of Spire's operations
   network, then replay the red team's network attacks and show the alert
   stream the plant engineers would see.

     dune exec examples/mana_ids.exe *)

let () =
  print_endline "=== MANA: Machine-learning Assisted Network Analyzer ===\n";
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let scenario =
    {
      Plc.Power.scenario_name = "mana-demo";
      plcs =
        [ { Plc.Power.plc_name = "MAIN"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true } ];
      feeds = [];
    }
  in
  let config = Prime.Config.red_team () in
  let deployment = Spire.Deployment.create ~engine ~trace ~config scenario in
  let pcap = Spire.Deployment.external_pcap deployment in
  let detector = Mana.Detector.create ~engine ~trace () in
  Mana.Detector.alerts detector |> ignore;

  (* Phase 1: baseline traffic collection (the deployment's 12-hour
     capture, compressed to 60 s of the same regular SCADA chatter). *)
  print_endline "Phase 1: collecting baseline traffic (60 s of normal operation)...";
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:2.0;
  Sim.Engine.run ~until:60.0 engine;
  let rng = Sim.Engine.split_rng engine in
  Mana.Detector.train detector ~rng pcap ~t0:5.0 ~t1:60.0;
  Printf.printf "  trained. (windows of 1 s; %d-dimensional feature vectors)\n\n"
    Mana.Features.dimensions;

  (* Phase 2: live detection while the red team works. *)
  print_endline "Phase 2: live detection during the red-team attacks...";
  let (_ : Sim.Engine.timer) = Mana.Detector.start detector pcap in
  let attacker = Attack.Attacker.create ~engine ~trace in
  let pos =
    Attack.Attacker.attach attacker ~name:"redteam" ~ip:(Netbase.Addr.Ip.v 10 0 2 66)
      (Spire.Deployment.external_switch deployment)
  in
  (* quiet period *)
  Sim.Engine.run ~until:75.0 engine;
  (* port scan *)
  let targets = List.init 4 (fun i -> Spire.Addressing.replica_external i) in
  let (_ : Netbase.Addr.Ip.t -> int -> string) =
    Attack.Actions.port_scan attacker pos ~targets
      ~ports:(List.init 30 (fun i -> 8100 + i))
  in
  Sim.Engine.run ~until:85.0 engine;
  (* ARP poisoning *)
  let r0 = (Spire.Deployment.replicas deployment).(0) in
  let (_ : Sim.Engine.timer) =
    Attack.Actions.arp_poison attacker pos
      ~victim_ip:(Spire.Addressing.replica_external 0)
      ~victim_mac:(Netbase.Host.nic_mac r0.Spire.Deployment.r_external_nic)
      ~impersonate:(Spire.Addressing.proxy_external 0)
  in
  Sim.Engine.run ~until:95.0 engine;
  (* DoS burst *)
  let (_ : int ref) =
    Attack.Actions.dos_flood attacker pos
      ~target_ip:(Spire.Addressing.replica_external 0)
      ~target_port:Spire.Addressing.spines_external_port ~rate:10_000.0 ~duration:5.0
  in
  Sim.Engine.run ~until:110.0 engine;
  Spire.Scenario_driver.stop driver;

  print_newline ();
  print_endline "Alert stream (the situational awareness board):";
  List.iter
    (fun a ->
      Printf.printf "  [%8.1f s] %-28s score %7.1f  (dominant feature: %s)\n"
        a.Mana.Detector.alert_time a.Mana.Detector.category a.Mana.Detector.score
        a.Mana.Detector.dominant_feature)
    (Mana.Detector.alerts detector);
  Printf.printf "\n%d windows scored, %d alerts, categories: %s\n"
    (Mana.Detector.windows_scored detector)
    (List.length (Mana.Detector.alerts detector))
    (String.concat ", " (Mana.Detector.alert_categories detector));
  print_newline ();
  let board = Mana.Board.create ~engine () in
  Mana.Board.add_network board ~name:"operations" detector;
  print_string (Mana.Board.render board);
  print_endline "\nNote: detection is fully passive (metadata only) — the paper's";
  print_endline "requirement for IDS in operational SCADA networks."
