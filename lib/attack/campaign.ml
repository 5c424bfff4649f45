(* The scripted red-team campaign of Section IV.

   Three phases, as in the exercise:
   - E1: the commercial system, attacked first from the enterprise
     network (pivot through the corporate firewall, PLC configuration
     dump and upload, breaker takeover) and then from inside the
     operations network (ARP MITM between SCADA master and HMI);
   - E2: Spire, attacked from the same positions with the same toolbox
     (scanning, ARP poisoning, IP spoofing, traffic floods);
   - E3: the excursion granting the red team gradually increasing control
     of one Spire replica (daemon stop, unkeyed rebuild, privilege
     escalation attempts, keyed patched binary, insider flooding).

   Every step records whether the *attacker* succeeded and what the
   system-level effect was; the bench layer prints these as the
   E1/E2/E3 tables. *)

type step = {
  phase : string;
  attack : string;
  attacker_position : string;
  succeeded : bool; (* from the attacker's perspective *)
  detail : string;
}

let step ~phase ~attack ~position ~succeeded detail =
  { phase; attack; attacker_position = position; succeeded; detail }

(* Progress probe: did the cycling SCADA service keep actuating breakers
   during an attack window? *)
let total_actuations deployment =
  Array.fold_left
    (fun acc p ->
      Array.fold_left (fun acc b -> acc + Plc.Breaker.actuations b) acc
        p.Spire.Deployment.p_breakers)
    0
    (Spire.Deployment.proxies deployment)

let hmi_field_consistent deployment =
  let hmi = (Spire.Deployment.hmis deployment).(0).Spire.Deployment.h_hmi in
  Array.for_all
    (fun p ->
      Array.for_all
        (fun b ->
          Scada.Hmi.displayed_closed hmi (Plc.Breaker.name b)
          = Some (Plc.Breaker.is_closed b))
        p.Spire.Deployment.p_breakers)
    (Spire.Deployment.proxies deployment)

(* --- E1: commercial system ----------------------------------------------------- *)

let run_commercial (tb : Testbed.t) =
  let engine = Testbed.engine tb in
  let attacker = Attacker.create ~engine ~trace:tb.Testbed.trace in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let run ~until = Sim.Engine.run ~until engine in
  let t0 = Sim.Engine.now engine in
  (* Settle the system. *)
  run ~until:(t0 +. 3.0);
  (* Position 1: the enterprise network. *)
  let ent =
    Attacker.attach attacker ~name:"redteam-ent" ~ip:(Netbase.Addr.Ip.v 10 0 10 66)
      tb.Testbed.enterprise_switch
  in
  Netbase.Host.set_default_gateway ent.Attacker.pos_host Spire.Addressing.enterprise_gateway;
  (* Step 1: compromise an enterprise machine (the historian). *)
  let r = Actions.exploit_service attacker ent tb.Testbed.historian_host ~port:5450 ~exploit:"historian-exploit" in
  push
    (step ~phase:"enterprise" ~attack:"exploit historian service" ~position:"enterprise"
       ~succeeded:(Result.is_ok r)
       (match r with Ok () -> "PI server compromised (user level)" | Error e -> e));
  (* Step 2: scan the commercial operations network through the firewall. *)
  let targets = Testbed.commercial_targets tb in
  let status = Actions.port_scan attacker ent ~targets ~ports:[ 502; 5500; 9600; 22 ] in
  run ~until:(Sim.Engine.now engine +. 2.0);
  let plc0 = Spire.Addressing.commercial_plc 0 in
  let visible =
    List.length
      (List.filter
         (fun ip ->
           List.exists
             (fun p ->
               let s = status ip p in
               String.length s >= 4 && String.sub s 0 4 = "open")
             [ 502; 5500; 9600; 22 ])
         targets)
  in
  push
    (step ~phase:"enterprise" ~attack:"scan operations network" ~position:"enterprise"
       ~succeeded:(visible > 0)
       (Printf.sprintf "%d of %d operations hosts expose services through the firewall" visible
          (List.length targets)));
  (* Step 3: dump the PLC configuration over its maintenance channel. *)
  let dump = Actions.dump_plc_config attacker ent ~plc_ip:plc0 in
  run ~until:(Sim.Engine.now engine +. 2.0);
  push
    (step ~phase:"enterprise" ~attack:"PLC memory dump (maintenance port)" ~position:"enterprise"
       ~succeeded:(!dump <> None)
       (match !dump with
       | Some config -> "configuration exfiltrated: " ^ config
       | None -> "no answer from PLC"));
  (* Step 4: upload modified configuration. *)
  (match !dump with
  | Some config ->
      Actions.upload_plc_config attacker ent ~plc_ip:plc0 ~config:(config ^ ":backdoored");
      run ~until:(Sim.Engine.now engine +. 2.0)
  | None -> ());
  let device0 = (Spire.Commercial.devices tb.Testbed.commercial).(0) in
  push
    (step ~phase:"enterprise" ~attack:"upload modified PLC configuration" ~position:"enterprise"
       ~succeeded:(Plc.Device.logic_compromised device0)
       (if Plc.Device.logic_compromised device0 then "malicious ladder logic installed"
        else "upload rejected"));
  (* Step 5: take control — open a breaker against the operator. *)
  let b57 =
    match Spire.Commercial.find_breaker tb.Testbed.commercial "B57" with
    | Some b -> b
    | None -> invalid_arg "campaign: B57 missing"
  in
  let was_closed = Plc.Breaker.is_closed b57 in
  Actions.actuate_plc attacker ent ~plc_ip:plc0 ~coil:1 ~close:(not was_closed);
  run ~until:(Sim.Engine.now engine +. 2.0);
  push
    (step ~phase:"enterprise" ~attack:"actuate breaker via compromised PLC" ~position:"enterprise"
       ~succeeded:(Plc.Breaker.is_closed b57 <> was_closed)
       (if Plc.Breaker.is_closed b57 <> was_closed then
          "attacker controls field equipment from the enterprise network"
        else "breaker did not move"));
  (* The operator tries to restore it through the SCADA master; the
     compromised logic ignores the command. *)
  Spire.Commercial.hmi_command tb.Testbed.commercial ~breaker:"B57" ~close:was_closed;
  run ~until:(Sim.Engine.now engine +. 3.0);
  push
    (step ~phase:"enterprise" ~attack:"operator attempts restoration" ~position:"enterprise"
       ~succeeded:(Plc.Breaker.is_closed b57 <> was_closed)
       (if Plc.Breaker.is_closed b57 <> was_closed then
          "supervisory commands ignored by malicious logic"
        else "operator regained control"));
  (* Position 2: directly on the commercial operations network. *)
  let ops =
    Attacker.attach attacker ~name:"redteam-ops" ~ip:(Netbase.Addr.Ip.v 10 0 20 66)
      (Spire.Commercial.ops_switch tb.Testbed.commercial)
  in
  (* Step 6: ARP MITM between master and HMI; invert every display update
     and so paint a false picture for the operator. *)
  let master_mac = Actions.resolve_mac attacker ops ~ip:Spire.Addressing.commercial_master in
  let hmi_mac = Actions.resolve_mac attacker ops ~ip:Spire.Addressing.commercial_hmi in
  run ~until:(Sim.Engine.now engine +. 1.0);
  (match (master_mac (), hmi_mac ()) with
  | Some m_mac, Some h_mac ->
      let stats =
        Actions.man_in_the_middle attacker ops ~ip_a:Spire.Addressing.commercial_master
          ~mac_a:m_mac ~ip_b:Spire.Addressing.commercial_hmi ~mac_b:h_mac
          ~rewrite:(fun payload ->
            match payload with
            | Spire.Commercial.Hmi_plain { breaker; closed } ->
                Some (Spire.Commercial.Hmi_plain { breaker; closed = not closed })
            | other -> Some other)
      in
      run ~until:(Sim.Engine.now engine +. 5.0);
      (* The HMI now shows the inverse of the field truth. *)
      let b56 =
        match Spire.Commercial.find_breaker tb.Testbed.commercial "B56" with
        | Some b -> b
        | None -> invalid_arg "campaign: B56 missing"
      in
      Plc.Breaker.force b56 Plc.Breaker.Open;
      run ~until:(Sim.Engine.now engine +. 4.0);
      let displayed = Spire.Commercial.displayed_closed tb.Testbed.commercial "B56" in
      let lied = displayed = Some true (* field is open, screen says closed *) in
      push
        (step ~phase:"operations" ~attack:"ARP MITM: modify updates to HMI"
           ~position:"commercial operations" ~succeeded:(stats.Actions.tampered > 0 && lied)
           (Printf.sprintf
              "%d updates intercepted, %d tampered; HMI shows B56 closed while field is open"
              stats.Actions.intercepted stats.Actions.tampered))
  | _ ->
      push
        (step ~phase:"operations" ~attack:"ARP MITM: modify updates to HMI"
           ~position:"commercial operations" ~succeeded:false "could not resolve victim MACs"));
  List.rev !steps

(* --- E2: Spire, network attacks -------------------------------------------------- *)

let run_spire_network (tb : Testbed.t) =
  let engine = Testbed.engine tb in
  let deployment = Testbed.spire tb in
  let attacker = Attacker.create ~engine ~trace:tb.Testbed.trace in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let run ~until = Sim.Engine.run ~until engine in
  run ~until:(Sim.Engine.now engine +. 3.0);
  (* The breaker-cycling workload the red team tried to disrupt. *)
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:0.5;
  run ~until:(Sim.Engine.now engine +. 5.0);
  (* Position 1: enterprise network. *)
  let ent =
    Attacker.attach attacker ~name:"redteam-ent2" ~ip:(Netbase.Addr.Ip.v 10 0 10 67)
      tb.Testbed.enterprise_switch
  in
  Netbase.Host.set_default_gateway ent.Attacker.pos_host Spire.Addressing.enterprise_gateway;
  let spire_ips = Testbed.spire_targets tb in
  let status =
    Actions.port_scan attacker ent ~targets:spire_ips
      ~ports:[ 22; 502; 5500; 8100; 8120; 9600 ]
  in
  run ~until:(Sim.Engine.now engine +. 2.0);
  let any_visible =
    List.exists
      (fun ip ->
        List.exists
          (fun p -> not (String.equal (status ip p) "filtered"))
          [ 22; 502; 5500; 8100; 8120; 9600 ])
      spire_ips
  in
  push
    (step ~phase:"enterprise" ~attack:"scan Spire operations network" ~position:"enterprise"
       ~succeeded:any_visible
       (if any_visible then "some Spire services visible"
        else "no visibility into the system (every probe filtered)"));
  (* Position 2: directly on the Spire operations (external) network. *)
  let ops =
    Attacker.attach attacker ~name:"redteam-spire-ops" ~ip:(Netbase.Addr.Ip.v 10 0 2 66)
      (Spire.Deployment.external_switch deployment)
  in
  (* Port scan from inside. *)
  let status2 =
    Actions.port_scan attacker ops ~targets:spire_ips ~ports:[ 22; 502; 8120; 9600 ]
  in
  run ~until:(Sim.Engine.now engine +. 2.0);
  let any_visible2 =
    List.exists
      (fun ip ->
        List.exists (fun p -> not (String.equal (status2 ip p) "filtered")) [ 22; 502; 8120; 9600 ])
      spire_ips
  in
  push
    (step ~phase:"operations" ~attack:"port scan from inside" ~position:"spire operations"
       ~succeeded:any_visible2
       (if any_visible2 then "services exposed" else "host firewalls filter every probe"));
  (* ARP poisoning against replica 0, impersonating the MAIN proxy. *)
  let r0 = (Spire.Deployment.replicas deployment).(0) in
  let victim_mac = Netbase.Host.nic_mac r0.Spire.Deployment.r_external_nic in
  let (_ : Sim.Engine.timer) =
    Actions.arp_poison attacker ops ~victim_ip:(Spire.Addressing.replica_external 0)
      ~victim_mac ~impersonate:(Spire.Addressing.proxy_external 0)
  in
  run ~until:(Sim.Engine.now engine +. 3.0);
  let poisoned =
    match Netbase.Host.arp_lookup r0.Spire.Deployment.r_host (Spire.Addressing.proxy_external 0) with
    | Some mac -> Netbase.Addr.Mac.equal mac (Netbase.Host.nic_mac ops.Attacker.pos_nic)
    | None -> false
  in
  push
    (step ~phase:"operations" ~attack:"ARP poisoning (impersonate proxy)"
       ~position:"spire operations" ~succeeded:poisoned
       (if poisoned then "replica redirects proxy traffic to attacker"
        else "static ARP entries ignore the poison"));
  (* IP spoofing: inject garbage into the replication port pretending to
     be a legitimate proxy. *)
  let before_garbage =
    Sim.Stats.Counter.get (Spines.Node.counters r0.Spire.Deployment.r_external_node) "link.garbage"
    + Sim.Stats.Counter.get (Spines.Node.counters r0.Spire.Deployment.r_external_node) "auth.reject"
  in
  for _ = 1 to 20 do
    Actions.spoofed_send attacker ops ~pretend_ip:(Spire.Addressing.proxy_external 0)
      ~dst_ip:(Spire.Addressing.replica_external 0) ~dst_port:Spire.Addressing.spines_external_port
      ~src_port:Spire.Addressing.spines_external_port ~size:200 (Netbase.Packet.Raw "forged spines traffic")
  done;
  run ~until:(Sim.Engine.now engine +. 2.0);
  let after_garbage =
    Sim.Stats.Counter.get (Spines.Node.counters r0.Spire.Deployment.r_external_node) "link.garbage"
    + Sim.Stats.Counter.get (Spines.Node.counters r0.Spire.Deployment.r_external_node) "auth.reject"
  in
  let consistent = hmi_field_consistent deployment in
  push
    (step ~phase:"operations" ~attack:"IP spoofing into replication port"
       ~position:"spire operations"
       ~succeeded:false
       (Printf.sprintf
          "%d forged packets rejected by Spines authentication; service %s"
          (after_garbage - before_garbage)
          (if consistent then "unaffected" else "DEGRADED")));
  (* Denial-of-service burst against a replica (spoofed as an allowed
     peer, so the host firewall cannot drop it by address). *)
  let actuations_before = total_actuations deployment in
  let (_ : int ref) =
    Actions.dos_flood attacker ops ~target_ip:(Spire.Addressing.replica_external 0)
      ~target_port:Spire.Addressing.spines_external_port ~rate:20_000.0 ~duration:5.0
  in
  run ~until:(Sim.Engine.now engine +. 8.0);
  let actuations_during = total_actuations deployment - actuations_before in
  push
    (step ~phase:"operations" ~attack:"denial-of-service burst (20k pkt/s, 5 s)"
       ~position:"spire operations" ~succeeded:(actuations_during = 0)
       (Printf.sprintf "breaker cycling continued: %d actuations during the flood"
          actuations_during));
  Spire.Scenario_driver.stop driver;
  run ~until:(Sim.Engine.now engine +. 5.0);
  List.rev !steps

(* --- E3: the replica excursion ---------------------------------------------------- *)

let run_excursion (tb : Testbed.t) =
  let engine = Testbed.engine tb in
  let deployment = Testbed.spire tb in
  let attacker = Attacker.create ~engine ~trace:tb.Testbed.trace in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let run ~until = Sim.Engine.run ~until engine in
  run ~until:(Sim.Engine.now engine +. 3.0);
  let driver = Spire.Scenario_driver.create deployment in
  Spire.Scenario_driver.start driver ~period:0.5;
  run ~until:(Sim.Engine.now engine +. 5.0);
  let r0 = (Spire.Deployment.replicas deployment).(0) in
  let service_ok ~window =
    let before = total_actuations deployment in
    run ~until:(Sim.Engine.now engine +. window);
    total_actuations deployment - before
  in
  (* User-level access granted on replica 0. *)
  Netbase.Host.set_compromise r0.Spire.Deployment.r_host Netbase.Host.User_level;
  (* Step 1: stop the Spines daemons. *)
  Spines.Node.stop r0.Spire.Deployment.r_internal_node;
  Spines.Node.stop r0.Spire.Deployment.r_external_node;
  let progressed = service_ok ~window:10.0 in
  push
    (step ~phase:"excursion" ~attack:"stop Spines daemons on one replica"
       ~position:"replica-0 (user)" ~succeeded:(progressed = 0)
       (Printf.sprintf "system tolerates the silent replica: %d actuations" progressed));
  (* Step 2: run a rebuilt open-source daemon without the new keys. *)
  let rogue_config =
    Spines.Node.default_config ~port:Spire.Addressing.spines_internal_port
      (Spines.Topology.full_mesh
         (List.init (Spire.Deployment.config deployment).Prime.Config.n (fun i -> i)))
  in
  let rogue =
    Spines.Node.create ~engine ~trace:tb.Testbed.trace ~host:r0.Spire.Deployment.r_host ~id:0
      rogue_config
  in
  for j = 1 to (Spire.Deployment.config deployment).Prime.Config.n - 1 do
    Spines.Node.set_peer_address rogue j (Spire.Addressing.replica_internal j)
  done;
  Spines.Node.start rogue;
  Spines.Node.send rogue ~client:1 ~size:100 (Spines.Node.To_group "prime")
    (Netbase.Packet.Raw "malicious injection");
  let r1 = (Spire.Deployment.replicas deployment).(1) in
  let rejects_before =
    Sim.Stats.Counter.get (Spines.Node.counters r1.Spire.Deployment.r_internal_node) "auth.reject"
  in
  let progressed = service_ok ~window:8.0 in
  let rejects_after =
    Sim.Stats.Counter.get (Spines.Node.counters r1.Spire.Deployment.r_internal_node) "auth.reject"
  in
  Spines.Node.stop rogue;
  push
    (step ~phase:"excursion" ~attack:"run modified daemon without encryption keys"
       ~position:"replica-0 (user)" ~succeeded:(progressed = 0 && rejects_after <= rejects_before)
       (Printf.sprintf "peers rejected %d unauthenticated messages; %d actuations continued"
          (rejects_after - rejects_before) progressed));
  (* Step 3: privilege escalation attempts (dirtycow, sshd). *)
  let dirty = Actions.escalate attacker r0.Spire.Deployment.r_host ~exploit:"dirtycow" in
  let sshd = Actions.escalate attacker r0.Spire.Deployment.r_host ~exploit:"ssh-exploit" in
  push
    (step ~phase:"excursion" ~attack:"privilege escalation (dirtycow, sshd)"
       ~position:"replica-0 (user)"
       ~succeeded:(Result.is_ok dirty || Result.is_ok sshd)
       (match (dirty, sshd) with
       | Error a, Error b -> Printf.sprintf "both failed on hardened CentOS: %s; %s" a b
       | _ -> "escalated to root"));
  (* Step 4: patch the (keyed) Spines binary with the discovered exploit;
     accepted as a member, but the vulnerable code path does not exist in
     an intrusion-tolerant daemon. *)
  Spines.Node.start r0.Spire.Deployment.r_internal_node;
  Spines.Node.start r0.Spire.Deployment.r_external_node;
  Spines.Node.inject_exploit r0.Spire.Deployment.r_internal_node "drop-foreign-traffic";
  let progressed = service_ok ~window:10.0 in
  push
    (step ~phase:"excursion" ~attack:"patched keyed binary with exploit"
       ~position:"replica-0 (user)" ~succeeded:(progressed = 0)
       (Printf.sprintf
          "accepted as valid member; the targeted code path does not exist in \
           intrusion-tolerant mode; %d actuations"
          progressed));
  (* Step 5: root access granted — insider floods the overlay as a
     trusted member, attacking fairness. *)
  Netbase.Host.set_compromise r0.Spire.Deployment.r_host Netbase.Host.Root_level;
  for _ = 1 to 3000 do
    Spines.Node.send r0.Spire.Deployment.r_internal_node ~client:99 ~size:500
      (Spines.Node.To_group "prime") (Netbase.Packet.Raw "insider flood")
  done;
  let clipped_probe () =
    Sim.Stats.Counter.get (Spines.Node.counters r1.Spire.Deployment.r_internal_node)
      "fairness.clipped"
  in
  let clipped_before = clipped_probe () in
  let progressed = service_ok ~window:10.0 in
  let clipped_after = clipped_probe () in
  push
    (step ~phase:"excursion" ~attack:"insider flooding as trusted member (root)"
       ~position:"replica-0 (root)" ~succeeded:(progressed = 0)
       (Printf.sprintf
          "source fairness clipped %d flood messages; %d actuations continued"
          (clipped_after - clipped_before) progressed));
  Spire.Scenario_driver.stop driver;
  run ~until:(Sim.Engine.now engine +. 3.0);
  List.rev !steps

let pp_step ppf s =
  Fmt.pf ppf "%-12s %-48s %-24s %-7s %s" s.phase s.attack s.attacker_position
    (if s.succeeded then "BREACH" else "held")
    s.detail
