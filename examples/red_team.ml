(* The Section IV red-team experiment, end to end: the full Fig. 3
   testbed with both the commercial SCADA system and Spire, attacked by
   the scripted nation-state-level campaign.

     dune exec examples/red_team.exe *)

let hr () = print_endline (String.make 100 '-')

let print_steps title steps =
  hr ();
  Printf.printf "%s\n" title;
  hr ();
  List.iter (fun s -> Format.printf "%a@." Attack.Campaign.pp_step s) steps;
  let breaches = List.length (List.filter (fun s -> s.Attack.Campaign.succeeded) steps) in
  Printf.printf "  => %d/%d attack steps succeeded\n\n" breaches (List.length steps)

let () =
  print_endline "=== Red-team experiment (PNNL, April 2017) ===";
  print_endline "Testbed: enterprise network + corporate firewall + two parallel";
  print_endline "operations networks (commercial SCADA and Spire), per Fig. 3.\n";
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let tb = Attack.Testbed.create ~engine ~trace () in

  (* MANA instances: train on the baseline capture of each network before
     the attacks begin (the setup-week packet capture). *)
  let commercial_det = Mana.Detector.create ~engine ~trace () in
  let spire_det = Mana.Detector.create ~engine ~trace () in
  Sim.Engine.run ~until:30.0 engine;
  let rng = Sim.Engine.split_rng engine in
  Mana.Detector.train commercial_det ~rng (Spire.Commercial.pcap (Attack.Testbed.commercial tb))
    ~t0:5.0 ~t1:30.0;
  Mana.Detector.train spire_det ~rng
    (Spire.Deployment.external_pcap (Attack.Testbed.spire tb))
    ~t0:5.0 ~t1:30.0;
  let (_ : Sim.Engine.timer) =
    Mana.Detector.start commercial_det (Spire.Commercial.pcap (Attack.Testbed.commercial tb))
  in
  let (_ : Sim.Engine.timer) =
    Mana.Detector.start spire_det (Spire.Deployment.external_pcap (Attack.Testbed.spire tb))
  in

  (* Phase 1: the commercial system. *)
  let commercial_steps = Attack.Campaign.run_commercial tb in
  print_steps "PHASE 1 — commercial SCADA system (NIST best practices)" commercial_steps;

  (* Phase 2: Spire, network attacks. *)
  let spire_steps = Attack.Campaign.run_spire_network tb in
  print_steps "PHASE 2 — Spire, network attacks" spire_steps;

  (* Phase 3: the replica excursion. *)
  let excursion_steps = Attack.Campaign.run_excursion tb in
  print_steps "PHASE 3 — Spire, compromised-replica excursion" excursion_steps;

  (* What the defenders saw: MANA's situational awareness board (the
     display "tailored for power plant engineers"). *)
  hr ();
  let board = Mana.Board.create ~engine () in
  Mana.Board.add_network board ~name:"commercial-ops" commercial_det;
  Mana.Board.add_network board ~name:"spire-ops" spire_det;
  print_string (Mana.Board.render board);
  print_newline ();
  print_endline "Conclusion: the commercial system fell within hours from the enterprise";
  print_endline "network; Spire withstood every attack at every level of access."
