(* Tests for the simulated network stack: addressing, firewalling,
   switching (learning and static/port-security modes), ARP resolution and
   poisoning, scan semantics, routing/ACLs, cables, and the host
   compromise model. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ip = Netbase.Addr.Ip.v

(* A tiny two-host LAN on one switch; returns everything the tests poke. *)
type lan = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  switch : Netbase.Switch.t;
  host_a : Netbase.Host.t;
  nic_a : Netbase.Host.nic;
  host_b : Netbase.Host.t;
  nic_b : Netbase.Host.nic;
}

let make_lan ?(mode = Netbase.Switch.Learning) ?(os = Netbase.Host.ubuntu_desktop)
    ?firewall_b () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let switch = Netbase.Switch.create ~mode ~engine ~trace "sw0" in
  let host_a = Netbase.Host.create ~os ~engine ~trace "alpha" in
  let nic_a = Netbase.Host.add_nic host_a ~ip:(ip 10 0 0 1) in
  let (_ : int) = Netbase.Host.plug_into_switch host_a nic_a switch in
  let host_b =
    match firewall_b with
    | None -> Netbase.Host.create ~os ~engine ~trace "beta"
    | Some fw -> Netbase.Host.create ~os ~firewall:fw ~engine ~trace "beta"
  in
  let nic_b = Netbase.Host.add_nic host_b ~ip:(ip 10 0 0 2) in
  let (_ : int) = Netbase.Host.plug_into_switch host_b nic_b switch in
  { engine; trace; switch; host_a; nic_a; host_b; nic_b }

(* --- Addr -------------------------------------------------------------- *)

let test_ip_roundtrip () =
  check_str "to_string" "192.168.1.7" (Netbase.Addr.Ip.to_string (ip 192 168 1 7));
  check "of_string" true
    (Netbase.Addr.Ip.equal (Netbase.Addr.Ip.of_string "10.20.30.40") (ip 10 20 30 40));
  check "subnet24 same" true (Netbase.Addr.Ip.same_subnet24 (ip 10 0 1 1) (ip 10 0 1 200));
  check "subnet24 diff" false (Netbase.Addr.Ip.same_subnet24 (ip 10 0 1 1) (ip 10 0 2 1))

let test_ip_invalid () =
  Alcotest.check_raises "octet range" (Invalid_argument "Ip.v: octet out of range") (fun () ->
      ignore (ip 256 0 0 1));
  Alcotest.check_raises "malformed" (Invalid_argument "Ip.of_string: 1.2.3") (fun () ->
      ignore (Netbase.Addr.Ip.of_string "1.2.3"))

let test_mac_fresh_unique () =
  let a = Netbase.Addr.Mac.fresh () and b = Netbase.Addr.Mac.fresh () in
  check "distinct" false (Netbase.Addr.Mac.equal a b);
  check "not broadcast" false (Netbase.Addr.Mac.is_broadcast a)

(* --- Firewall ----------------------------------------------------------- *)

let test_firewall_default_allow () =
  let fw = Netbase.Firewall.create () in
  let v =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 1 2 3 4)
      ~local_port:80 ~remote_port:9999
  in
  check "open by default" true (v.Netbase.Firewall.action = Netbase.Firewall.Allow)

let test_firewall_locked_down () =
  let fw = Netbase.Firewall.locked_down () in
  let v =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 1 2 3 4)
      ~local_port:80 ~remote_port:9999
  in
  check "deny by default" true (v.Netbase.Firewall.action = Netbase.Firewall.Deny)

let test_firewall_allow_peer () =
  let fw = Netbase.Firewall.locked_down () in
  Netbase.Firewall.allow_peer fw ~remote_ip:(ip 10 0 0 9) ~local_port:8100
    ~description:"spines peer";
  let ok =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 10 0 0 9)
      ~local_port:8100 ~remote_port:8100
  in
  check "peer admitted" true (ok.Netbase.Firewall.action = Netbase.Firewall.Allow);
  check_str "matched rule" "spines peer" (Option.get ok.Netbase.Firewall.matched);
  let wrong_ip =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 10 0 0 10)
      ~local_port:8100 ~remote_port:8100
  in
  check "other ip denied" true (wrong_ip.Netbase.Firewall.action = Netbase.Firewall.Deny);
  let wrong_port =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 10 0 0 9)
      ~local_port:8101 ~remote_port:8100
  in
  check "other port denied" true (wrong_port.Netbase.Firewall.action = Netbase.Firewall.Deny);
  let egress =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Egress ~remote_ip:(ip 10 0 0 9)
      ~local_port:41000 ~remote_port:8100
  in
  check "egress to peer admitted" true (egress.Netbase.Firewall.action = Netbase.Firewall.Allow)

let test_firewall_first_match_wins () =
  let fw = Netbase.Firewall.create () in
  Netbase.Firewall.add fw
    (Netbase.Firewall.rule ~action:Netbase.Firewall.Deny ~local_port:502
       ~description:"block modbus" Netbase.Firewall.Ingress);
  Netbase.Firewall.add fw
    (Netbase.Firewall.rule ~action:Netbase.Firewall.Allow ~local_port:502
       ~description:"allow modbus" Netbase.Firewall.Ingress);
  let v =
    Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress ~remote_ip:(ip 1 1 1 1)
      ~local_port:502 ~remote_port:5000
  in
  check "first rule applies" true (v.Netbase.Firewall.action = Netbase.Firewall.Deny)

let prop_firewall_locked_down_denies_everything =
  QCheck.Test.make ~count:200 ~name:"locked-down firewall denies arbitrary packets"
    QCheck.(triple (int_range 0 255) (int_range 1 65535) (int_range 1 65535))
    (fun (oct, local_port, remote_port) ->
      let fw = Netbase.Firewall.locked_down () in
      let v =
        Netbase.Firewall.evaluate fw ~direction:Netbase.Firewall.Ingress
          ~remote_ip:(ip 10 0 0 oct) ~local_port ~remote_port
      in
      v.Netbase.Firewall.action = Netbase.Firewall.Deny)

(* --- UDP delivery over a switch ----------------------------------------- *)

let test_udp_end_to_end () =
  let lan = make_lan () in
  let received = ref None in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src ~dst_port ~size payload ->
      received := Some (src, dst_port, size, payload));
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:100
    (Netbase.Packet.Raw "hello");
  Sim.Engine.run lan.engine;
  match !received with
  | Some (src, dst_port, size, Netbase.Packet.Raw body) ->
      check "src ip" true (Netbase.Addr.Ip.equal src.Netbase.Addr.ip (ip 10 0 0 1));
      check_int "src port" 9 src.Netbase.Addr.port;
      check_int "dst port" 7000 dst_port;
      check_int "size" 100 size;
      check_str "body" "hello" body
  | _ -> Alcotest.fail "datagram not delivered"

let test_udp_closed_port_counted () =
  let lan = make_lan () in
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:12345 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "x");
  Sim.Engine.run lan.engine;
  check_int "closed-port drop" 1
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_b) "rx.port_closed")

let test_udp_blocked_by_ingress_firewall () =
  let fw = Netbase.Firewall.locked_down () in
  Netbase.Firewall.set_default fw Netbase.Firewall.Egress Netbase.Firewall.Allow;
  let lan = make_lan ~firewall_b:fw () in
  let received = ref false in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      received := true);
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "x");
  Sim.Engine.run lan.engine;
  check "not delivered" false !received;
  check_int "firewall drop counted" 1
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_b) "rx.firewall_drop")

let test_arp_resolution_once () =
  let lan = make_lan () in
  let count = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> incr count);
  for _ = 1 to 3 do
    Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
      (Netbase.Packet.Raw "x")
  done;
  Sim.Engine.run lan.engine;
  check_int "all delivered" 3 !count;
  (* Only the first send needed an ARP exchange. *)
  check_int "one arp request" 1
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_a) "arp.request_sent");
  match Netbase.Host.arp_lookup lan.host_a (ip 10 0 0 2) with
  | Some mac -> check "learned b's mac" true (Netbase.Addr.Mac.equal mac (Netbase.Host.nic_mac lan.nic_b))
  | None -> Alcotest.fail "arp entry missing"

(* --- ARP poisoning ------------------------------------------------------- *)

let poison_frame ~attacker_nic ~victim_ip ~victim_mac ~impersonated_ip =
  (* Gratuitous/unsolicited ARP reply claiming [impersonated_ip] is at the
     attacker's MAC. *)
  {
    Netbase.Packet.src_mac = Netbase.Host.nic_mac attacker_nic;
    dst_mac = victim_mac;
    l3 =
      Netbase.Packet.Arp_reply
        {
          sender_ip = impersonated_ip;
          sender_mac = Netbase.Host.nic_mac attacker_nic;
          target_ip = victim_ip;
          target_mac = victim_mac;
        };
  }

let test_arp_poisoning_dynamic_cache () =
  let lan = make_lan () in
  let attacker = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "mallory" in
  let attacker_nic = Netbase.Host.add_nic attacker ~ip:(ip 10 0 0 66) in
  let (_ : int) = Netbase.Host.plug_into_switch attacker attacker_nic lan.switch in
  (* Prime alpha's cache with the honest mapping. *)
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "x");
  Sim.Engine.run lan.engine;
  (* Poison: claim 10.0.0.2 is at mallory's MAC. *)
  Netbase.Host.inject_frame attacker attacker_nic
    (poison_frame ~attacker_nic ~victim_ip:(ip 10 0 0 1)
       ~victim_mac:(Netbase.Host.nic_mac lan.nic_a) ~impersonated_ip:(ip 10 0 0 2));
  Sim.Engine.run lan.engine;
  (match Netbase.Host.arp_lookup lan.host_a (ip 10 0 0 2) with
  | Some mac ->
      check "cache poisoned" true (Netbase.Addr.Mac.equal mac (Netbase.Host.nic_mac attacker_nic))
  | None -> Alcotest.fail "entry vanished");
  (* Traffic for beta now lands on mallory. *)
  let hijacked = ref false in
  Netbase.Host.set_raw_handler attacker
    (Some
       (fun _ frame ->
         match frame.Netbase.Packet.l3 with
         | Netbase.Packet.Ipv4 { dst; _ } when Netbase.Addr.Ip.equal dst (ip 10 0 0 2) ->
             hijacked := true;
             true
         | _ -> false));
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "secret");
  Sim.Engine.run lan.engine;
  check "traffic hijacked" true !hijacked

let test_arp_poisoning_defeated_by_static_entry () =
  let lan = make_lan () in
  let attacker = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "mallory" in
  let attacker_nic = Netbase.Host.add_nic attacker ~ip:(ip 10 0 0 66) in
  let (_ : int) = Netbase.Host.plug_into_switch attacker attacker_nic lan.switch in
  (* Section III-B hardening: static mapping of MAC to IP. *)
  Netbase.Host.set_static_arp lan.host_a ~ip:(ip 10 0 0 2)
    ~mac:(Netbase.Host.nic_mac lan.nic_b);
  Netbase.Host.inject_frame attacker attacker_nic
    (poison_frame ~attacker_nic ~victim_ip:(ip 10 0 0 1)
       ~victim_mac:(Netbase.Host.nic_mac lan.nic_a) ~impersonated_ip:(ip 10 0 0 2));
  Sim.Engine.run lan.engine;
  (match Netbase.Host.arp_lookup lan.host_a (ip 10 0 0 2) with
  | Some mac ->
      check "static entry intact" true
        (Netbase.Addr.Mac.equal mac (Netbase.Host.nic_mac lan.nic_b))
  | None -> Alcotest.fail "entry vanished");
  check "poison attempt recorded" true
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_a) "arp.static_protected" >= 1)

let test_arp_ignore_multihomed () =
  (* A hardened dual-homed replica must not answer, on its external NIC,
     ARP queries for its internal-network address. *)
  let probe_host os =
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create () in
    let external_sw = Netbase.Switch.create ~engine ~trace "ext" in
    let replica = Netbase.Host.create ~os ~engine ~trace "replica" in
    let ext_nic = Netbase.Host.add_nic replica ~ip:(ip 10 0 2 1) in
    let (_ : int) = Netbase.Host.plug_into_switch replica ext_nic external_sw in
    let _int_nic = Netbase.Host.add_nic replica ~ip:(ip 10 0 1 1) in
    let attacker = Netbase.Host.create ~engine ~trace "scanner" in
    let a_nic = Netbase.Host.add_nic attacker ~ip:(ip 10 0 2 66) in
    let (_ : int) = Netbase.Host.plug_into_switch attacker a_nic external_sw in
    let leaked = ref false in
    Netbase.Host.set_raw_handler attacker
      (Some
         (fun _ frame ->
           (match frame.Netbase.Packet.l3 with
           | Netbase.Packet.Arp_reply { sender_ip; _ }
             when Netbase.Addr.Ip.equal sender_ip (ip 10 0 1 1) ->
               leaked := true
           | _ -> ());
           false));
    Netbase.Host.inject_frame attacker a_nic
      {
        Netbase.Packet.src_mac = Netbase.Host.nic_mac a_nic;
        dst_mac = Netbase.Addr.Mac.broadcast;
        l3 =
          Netbase.Packet.Arp_request
            {
              sender_ip = ip 10 0 2 66;
              sender_mac = Netbase.Host.nic_mac a_nic;
              target_ip = ip 10 0 1 1;
            };
      };
    Sim.Engine.run engine;
    !leaked
  in
  check "default profile leaks internal address" true
    (probe_host Netbase.Host.ubuntu_desktop);
  check "hardened profile does not" false (probe_host Netbase.Host.centos_minimal)

(* --- Switch port security ------------------------------------------------ *)

let test_static_switch_blocks_unknown_mac () =
  let lan = make_lan ~mode:Netbase.Switch.Static () in
  Netbase.Switch.bind_mac lan.switch (Netbase.Host.nic_mac lan.nic_a) 0;
  Netbase.Switch.bind_mac lan.switch (Netbase.Host.nic_mac lan.nic_b) 1;
  let delivered = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      incr delivered);
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "legit");
  Sim.Engine.run lan.engine;
  check_int "legit traffic flows" 1 !delivered;
  (* Rogue device on a new port: its MAC has no binding, frames dropped. *)
  let rogue = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "rogue" in
  let rogue_nic = Netbase.Host.add_nic rogue ~ip:(ip 10 0 0 66) in
  let (_ : int) = Netbase.Host.plug_into_switch rogue rogue_nic lan.switch in
  Netbase.Host.udp_send rogue ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "evil");
  Sim.Engine.run lan.engine;
  check_int "rogue traffic dropped" 1 !delivered;
  check "port-security drop counted" true
    (Sim.Stats.Counter.get (Netbase.Switch.counters lan.switch) "drop.port_security" >= 1)

let test_static_switch_blocks_mac_spoof () =
  let lan = make_lan ~mode:Netbase.Switch.Static () in
  Netbase.Switch.bind_mac lan.switch (Netbase.Host.nic_mac lan.nic_a) 0;
  Netbase.Switch.bind_mac lan.switch (Netbase.Host.nic_mac lan.nic_b) 1;
  let rogue = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "rogue" in
  let rogue_nic = Netbase.Host.add_nic rogue ~ip:(ip 10 0 0 66) in
  let (_ : int) = Netbase.Host.plug_into_switch rogue rogue_nic lan.switch in
  let delivered = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      incr delivered);
  (* Spoof alpha's MAC from the rogue port. *)
  Netbase.Host.inject_frame rogue rogue_nic
    (Netbase.Packet.udp_frame
       ~src_mac:(Netbase.Host.nic_mac lan.nic_a)
       ~dst_mac:(Netbase.Host.nic_mac lan.nic_b)
       ~src_ip:(ip 10 0 0 1) ~dst_ip:(ip 10 0 0 2) ~src_port:9 ~dst_port:7000 ~size:50
       (Netbase.Packet.Raw "spoof"));
  Sim.Engine.run lan.engine;
  check_int "spoofed frame dropped" 0 !delivered

let test_learning_switch_floods_then_filters () =
  let lan = make_lan () in
  let seen_by_c = ref 0 in
  let host_c = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "gamma" in
  let nic_c = Netbase.Host.add_nic host_c ~ip:(ip 10 0 0 3) in
  let (_ : int) = Netbase.Host.plug_into_switch host_c nic_c lan.switch in
  Netbase.Host.set_promiscuous nic_c (Some (fun _ -> incr seen_by_c));
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ());
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "one");
  Sim.Engine.run lan.engine;
  let after_first = !seen_by_c in
  check "first exchange flooded to third port" true (after_first > 0);
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:50
    (Netbase.Packet.Raw "two");
  Sim.Engine.run lan.engine;
  check_int "second unicast not flooded" after_first !seen_by_c

(* --- Scan semantics -------------------------------------------------------- *)

let run_scan lan ~scanner ~scanner_nic:_ ~target_ip ~ports =
  let results : (int, string) Hashtbl.t = Hashtbl.create 8 in
  Netbase.Host.udp_bind scanner ~port:40001 (fun ~src ~dst_port:_ ~size:_ payload ->
      match payload with
      | Netbase.Packet.Scan_ack { service } ->
          Hashtbl.replace results src.Netbase.Addr.port ("open:" ^ service)
      | Netbase.Packet.Icmp_port_unreachable ->
          Hashtbl.replace results src.Netbase.Addr.port "closed"
      | _ -> ());
  List.iter
    (fun port ->
      Netbase.Host.udp_send scanner ~dst_ip:target_ip ~dst_port:port ~src_port:40001 ~size:40
        Netbase.Packet.Scan_probe)
    ports;
  Sim.Engine.run lan.engine;
  fun port ->
    match Hashtbl.find_opt results port with Some s -> s | None -> "filtered"

let test_port_scan_open_closed_filtered () =
  let lan = make_lan () in
  let scanner = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "scanner" in
  let scanner_nic = Netbase.Host.add_nic scanner ~ip:(ip 10 0 0 99) in
  let (_ : int) = Netbase.Host.plug_into_switch scanner scanner_nic lan.switch in
  let status =
    run_scan lan ~scanner ~scanner_nic ~target_ip:(ip 10 0 0 2) ~ports:[ 22; 777 ]
  in
  check_str "ssh open" "open:sshd-old" (status 22);
  check_str "777 closed" "closed" (status 777)

let test_port_scan_against_locked_down_host () =
  let fw = Netbase.Firewall.locked_down () in
  let lan = make_lan ~os:Netbase.Host.centos_minimal ~firewall_b:fw () in
  let scanner = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "scanner" in
  let scanner_nic = Netbase.Host.add_nic scanner ~ip:(ip 10 0 0 99) in
  let (_ : int) = Netbase.Host.plug_into_switch scanner scanner_nic lan.switch in
  let status =
    run_scan lan ~scanner ~scanner_nic ~target_ip:(ip 10 0 0 2) ~ports:[ 22; 777; 8100 ]
  in
  check_str "ssh filtered" "filtered" (status 22);
  check_str "777 filtered" "filtered" (status 777);
  check_str "8100 filtered" "filtered" (status 8100)

(* --- Router / segment ACLs -------------------------------------------------- *)

type routed = {
  engine : Sim.Engine.t;
  enterprise_host : Netbase.Host.t;
  ops_host : Netbase.Host.t;
}

let make_routed ~permit_502 =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let ent_sw = Netbase.Switch.create ~engine ~trace "enterprise" in
  let ops_sw = Netbase.Switch.create ~engine ~trace "operations" in
  let router = Netbase.Router.create ~engine ~trace "corp-fw" in
  let (_ : Netbase.Host.nic) = Netbase.Router.add_interface router ~ip:(ip 10 0 10 254) ent_sw in
  let (_ : Netbase.Host.nic) = Netbase.Router.add_interface router ~ip:(ip 10 0 20 254) ops_sw in
  if permit_502 then
    Netbase.Router.permit router ~src_subnet:(ip 10 0 10 0) ~dst_subnet:(ip 10 0 20 0)
      ~dst_port:502 ~description:"historian to scada" ();
  let enterprise_host = Netbase.Host.create ~engine ~trace "historian" in
  let e_nic = Netbase.Host.add_nic enterprise_host ~ip:(ip 10 0 10 5) in
  let (_ : int) = Netbase.Host.plug_into_switch enterprise_host e_nic ent_sw in
  Netbase.Host.set_default_gateway enterprise_host (ip 10 0 10 254);
  let ops_host = Netbase.Host.create ~engine ~trace "plc" in
  let o_nic = Netbase.Host.add_nic ops_host ~ip:(ip 10 0 20 7) in
  let (_ : int) = Netbase.Host.plug_into_switch ops_host o_nic ops_sw in
  Netbase.Host.set_default_gateway ops_host (ip 10 0 20 254);
  { engine; enterprise_host; ops_host }

let test_router_permits_acl_flow () =
  let net = make_routed ~permit_502:true in
  let got = ref false in
  Netbase.Host.udp_bind net.ops_host ~port:502 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      got := true);
  Netbase.Host.udp_send net.enterprise_host ~dst_ip:(ip 10 0 20 7) ~dst_port:502 ~src_port:5001
    ~size:64 (Netbase.Packet.Raw "modbus read");
  Sim.Engine.run net.engine;
  check "cross-segment modbus delivered" true !got

let test_router_drops_unpermitted_flow () =
  let net = make_routed ~permit_502:false in
  let got = ref false in
  Netbase.Host.udp_bind net.ops_host ~port:502 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      got := true);
  Netbase.Host.udp_send net.enterprise_host ~dst_ip:(ip 10 0 20 7) ~dst_port:502 ~src_port:5001
    ~size:64 (Netbase.Packet.Raw "modbus read");
  Sim.Engine.run net.engine;
  check "acl blocks flow" false !got

(* --- Cable -------------------------------------------------------------------- *)

let test_cable_point_to_point () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let plc = Netbase.Host.create ~engine ~trace "plc" in
  let plc_nic = Netbase.Host.add_nic plc ~ip:(ip 192 168 50 2) in
  let proxy = Netbase.Host.create ~engine ~trace "proxy" in
  let proxy_nic = Netbase.Host.add_nic proxy ~ip:(ip 192 168 50 1) in
  Netbase.Cable.connect ~engine ~latency:1e-5 proxy proxy_nic plc plc_nic;
  let got = ref false in
  Netbase.Host.udp_bind plc ~port:502 (fun ~src:_ ~dst_port:_ ~size:_ _ -> got := true);
  Netbase.Host.udp_send proxy ~dst_ip:(ip 192 168 50 2) ~dst_port:502 ~src_port:5002 ~size:12
    (Netbase.Packet.Raw "read coils");
  Sim.Engine.run engine;
  check "delivered over cable" true !got

(* --- DoS / backlog -------------------------------------------------------------- *)

let test_switch_backlog_drops_flood () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  (* A slow 10 Mb/s port makes saturation cheap. *)
  let bandwidth = 1_250_000.0 in
  let switch = Netbase.Switch.create ~bandwidth ~engine ~trace "slow" in
  let a = Netbase.Host.create ~engine ~trace "flooder" in
  let nic_a = Netbase.Host.add_nic a ~ip:(ip 10 0 0 1) in
  let (_ : int) = Netbase.Host.plug_into_switch a nic_a switch in
  let b = Netbase.Host.create ~engine ~trace "victim" in
  let nic_b = Netbase.Host.add_nic b ~ip:(ip 10 0 0 2) in
  let (_ : int) = Netbase.Host.plug_into_switch b nic_b switch in
  let received = ref 0 in
  Netbase.Host.udp_bind b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> incr received);
  (* Resolve ARP first so the flood is pure unicast. *)
  Netbase.Host.udp_send a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:100
    (Netbase.Packet.Raw "warm");
  Sim.Engine.run engine;
  for _ = 1 to 200 do
    Netbase.Host.udp_send a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:1400
      (Netbase.Packet.Raw "flood")
  done;
  Sim.Engine.run engine;
  check "some flood delivered" true (!received > 1);
  check "saturation drops occurred" true
    (Sim.Stats.Counter.get (Netbase.Switch.counters switch) "drop.backlog" > 0);
  check "not everything got through" true (!received < 201);
  (* A port queues at most [max_backlog] seconds of serialisation: no
     more 1 400-byte frames than fit in that time, plus the one on the
     wire. *)
  let fit = int_of_float (Netbase.Switch.max_backlog *. bandwidth /. 1400.0) + 1 in
  check "flood admitted up to the backlog bound" true (!received - 1 <= fit)

(* --- Compromise model -------------------------------------------------------------- *)

let test_remote_exploit_requires_vulnerable_service () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let target = Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine ~trace "victim" in
  let (_ : Netbase.Host.nic) = Netbase.Host.add_nic target ~ip:(ip 10 0 0 2) in
  check "starts clean" true (Netbase.Host.compromise_level target = Netbase.Host.Clean);
  (match
     Netbase.Host.attempt_remote_exploit target ~from_ip:(ip 10 0 0 9) ~port:22
       ~exploit:"ssh-exploit"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("expected success: " ^ e));
  check "user level" true (Netbase.Host.compromise_level target = Netbase.Host.User_level)

let test_remote_exploit_blocked_by_patching_and_firewall () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let hardened =
    Netbase.Host.create ~os:Netbase.Host.centos_minimal
      ~firewall:(Netbase.Firewall.locked_down ()) ~engine ~trace "replica"
  in
  let (_ : Netbase.Host.nic) = Netbase.Host.add_nic hardened ~ip:(ip 10 0 0 2) in
  (match
     Netbase.Host.attempt_remote_exploit hardened ~from_ip:(ip 10 0 0 9) ~port:22
       ~exploit:"ssh-exploit"
   with
  | Ok () -> Alcotest.fail "should be filtered"
  | Error e -> check_str "firewall filters" "filtered" e);
  (* Even with the firewall open, the patched service resists. *)
  let semi =
    Netbase.Host.create ~os:Netbase.Host.centos_minimal ~engine ~trace "replica2"
  in
  let (_ : Netbase.Host.nic) = Netbase.Host.add_nic semi ~ip:(ip 10 0 0 3) in
  match
    Netbase.Host.attempt_remote_exploit semi ~from_ip:(ip 10 0 0 9) ~port:22
      ~exploit:"ssh-exploit"
  with
  | Ok () -> Alcotest.fail "patched sshd must resist"
  | Error e -> check_str "patched" "service not vulnerable" e

let test_privilege_escalation_depends_on_os () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let old_os = Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine ~trace "old" in
  Netbase.Host.set_compromise old_os Netbase.Host.User_level;
  (match Netbase.Host.attempt_privilege_escalation old_os ~exploit:"dirtycow" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("dirtycow should work on old kernel: " ^ e));
  check "root" true (Netbase.Host.compromise_level old_os = Netbase.Host.Root_level);
  let new_os = Netbase.Host.create ~os:Netbase.Host.centos_minimal ~engine ~trace "new" in
  Netbase.Host.set_compromise new_os Netbase.Host.User_level;
  (match Netbase.Host.attempt_privilege_escalation new_os ~exploit:"dirtycow" with
  | Ok () -> Alcotest.fail "patched kernel must resist dirtycow"
  | Error _ -> ());
  check "still user" true (Netbase.Host.compromise_level new_os = Netbase.Host.User_level)

(* --- Pcap ---------------------------------------------------------------------- *)

let test_pcap_tap_records_traffic () =
  let lan = make_lan () in
  let cap = Netbase.Pcap.create () in
  Netbase.Switch.add_tap lan.switch (fun frame ->
      Netbase.Pcap.capture cap ~time:(Sim.Engine.now lan.engine) frame);
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ());
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:64
    (Netbase.Packet.Raw "x");
  Sim.Engine.run lan.engine;
  (* ARP request + reply + the datagram. *)
  check "captured at least 3 frames" true (Netbase.Pcap.length cap >= 3);
  let udp_records =
    List.filter
      (fun r -> match r.Netbase.Pcap.info with Netbase.Pcap.Udp _ -> true | _ -> false)
      (Netbase.Pcap.records cap)
  in
  check_int "one udp record" 1 (List.length udp_records)

(* The capture against a plain list of [of_frame] records: [records],
   [window] (equal times, empty and inverted windows included) and
   [length] agree, across chunk boundaries. Frames come from one of three
   flow mixes: all fresh (most frames intern a new flow); a pool of 1-8
   flows (most frames hit an interned one); or 65-96 distinct flows in
   turn, so the flow index resizes. Pooled flows come from a universe
   whose fields take two values each, so many pairs differ in one field
   only and some share a probe chain in the index. UDP sizes reach
   100 000, as Spines frames have no size bound. *)
let gen_pcap_frame =
  let open QCheck.Gen in
  let ip = map Netbase.Addr.Ip.of_int (int_range 0 0xFFFFFFFF) in
  let mac = map Netbase.Addr.Mac.of_int (int_range 0 0xFFFFFFFFFFFF) in
  let port = oneof [ int_range 0 65535; oneofl [ 0; 8100; 65535 ] ] in
  let size = oneof [ int_range 0 1500; int_range 0 100_000; oneofl [ 0; 100_000 ] ] in
  oneof
    [
      map3
        (fun (src_mac, dst_mac) (sender_ip, target_ip) sender_mac ->
          { Netbase.Packet.src_mac; dst_mac;
            l3 = Netbase.Packet.Arp_request { sender_ip; sender_mac; target_ip } })
        (pair mac mac) (pair ip ip) mac;
      map3
        (fun (src_mac, dst_mac) (sender_ip, target_ip) (sender_mac, target_mac) ->
          { Netbase.Packet.src_mac; dst_mac;
            l3 = Netbase.Packet.Arp_reply { sender_ip; sender_mac; target_ip; target_mac } })
        (pair mac mac) (pair ip ip) (pair mac mac);
      map3
        (fun (src_mac, dst_mac) (src_ip, dst_ip) (src_port, dst_port, size) ->
          Netbase.Packet.udp_frame ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~size
            (Netbase.Packet.Raw ""))
        (pair mac mac) (pair ip ip) (triple port port size);
    ]

(* Every flow over two MACs, two IPs and two ports: 16 ARP requests, 16
   ARP replies and 64 UDP flows. *)
let narrow_flows =
  let pairs = [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  let mac i = Netbase.Addr.Mac.of_int (0x020000000001 + i) in
  let ip i = Netbase.Addr.Ip.of_int (0x0a000001 + i) in
  List.concat_map
    (fun (s, d) ->
      List.concat_map
        (fun (a, b) ->
          let src_mac = mac s and dst_mac = mac d and sender_ip = ip a and target_ip = ip b in
          let arp l3 = { Netbase.Packet.src_mac; dst_mac; l3 } in
          let udp (sp, dp) =
            Netbase.Packet.udp_frame ~src_mac ~dst_mac ~src_ip:sender_ip ~dst_ip:target_ip
              ~src_port:(8100 * sp) ~dst_port:(8100 * dp) ~size:0 (Netbase.Packet.Raw "")
          in
          arp (Netbase.Packet.Arp_request { sender_ip; sender_mac = src_mac; target_ip })
          :: arp
               (Netbase.Packet.Arp_reply
                  { sender_ip; sender_mac = src_mac; target_ip; target_mac = dst_mac })
          :: List.map udp pairs)
        pairs)
    pairs
  |> Array.of_list

(* The same flow with another UDP size: sizes vary within a flow. *)
let resize_udp size (f : Netbase.Packet.frame) =
  match f.l3 with
  | Netbase.Packet.Ipv4 ({ udp; _ } as l3) ->
      { f with l3 = Netbase.Packet.Ipv4 { l3 with udp = { udp with size } } }
  | Netbase.Packet.Arp_request _ | Netbase.Packet.Arp_reply _ -> f

let gen_pcap_case =
  let open QCheck.Gen in
  let n = frequency [ (4, int_range 0 40); (1, int_range 1000 2100) ] in
  (* [n] frames over [lo]-[hi] distinct flows of [narrow_flows], drawn at
     random or, with [cycle], in turn so that every flow occurs. *)
  let pooled ~cycle lo hi n =
    int_range lo hi >>= fun flows ->
    map Array.of_list (shuffle_l (Array.to_list narrow_flows)) >>= fun universe ->
    list_repeat n (pair (int_bound (flows - 1)) (int_range 0 100_000))
    |> map
         (List.mapi (fun k (i, size) ->
              resize_udp size universe.(if cycle then k mod flows else i)))
  in
  let frames n =
    frequency
      [
        (2, list_repeat n gen_pcap_frame);
        (2, pooled ~cycle:false 1 8 n);
        (1, pooled ~cycle:true 65 (Array.length narrow_flows) (max n 300));
      ]
  in
  let step = oneof [ oneofl [ 0.0; 0.0; 0.25; 1.0 ]; float_range 0.0 2.0 ] in
  n >>= frames >>= fun frames ->
  list_repeat (List.length frames) step >>= fun steps ->
  let n = List.length frames in
  let _, timed =
    List.fold_left2
      (fun (now, acc) dt f -> (now +. dt, (now +. dt, f) :: acc))
      (0.0, []) steps frames
  in
  let timed = List.rev timed in
  let bound =
    oneof [ float_range (-1.0) (float_of_int n +. 1.0); oneofl (0.0 :: List.map fst timed) ]
  in
  map (fun windows -> (timed, windows)) (list_size (int_range 1 8) (pair bound bound))

let prop_pcap_matches_list_model =
  QCheck.Test.make ~count:200 ~name:"pcap matches a list model"
    (QCheck.make
       ~print:(fun (timed, windows) ->
         Printf.sprintf "%d frames at [%s]; windows %s" (List.length timed)
           (String.concat "; " (List.map (fun (t, _) -> string_of_float t) timed))
           (String.concat "; "
              (List.map (fun (a, b) -> Printf.sprintf "[%g, %g)" a b) windows)))
       gen_pcap_case)
    (fun (timed, windows) ->
      let cap = Netbase.Pcap.create () in
      List.iter (fun (time, f) -> Netbase.Pcap.capture cap ~time f) timed;
      let model = List.map (fun (time, f) -> Netbase.Pcap.of_frame ~time f) timed in
      Netbase.Pcap.length cap = List.length model
      && Netbase.Pcap.records cap = model
      && List.for_all
           (fun (t0, t1) ->
             Netbase.Pcap.window cap ~t0 ~t1
             = List.filter (fun r -> r.Netbase.Pcap.time >= t0 && r.Netbase.Pcap.time < t1) model)
           windows)

(* A record costs its time and one int once its flow is interned: a
   10 240-frame capture over 8 flows holds at most 2.1 words a record,
   flow table and chunk headers included. *)
let test_pcap_words_per_record () =
  let cap = Netbase.Pcap.create () in
  let frames = 10_240 and flows = 8 in
  for k = 0 to frames - 1 do
    let flow = k mod flows in
    Netbase.Pcap.capture cap ~time:(float_of_int k *. 0.001)
      (Netbase.Packet.udp_frame
         ~src_mac:(Netbase.Addr.Mac.of_int (0x020000000000 + flow))
         ~dst_mac:(Netbase.Addr.Mac.of_int 0x020000000100)
         ~src_ip:(ip 10 0 0 (1 + flow)) ~dst_ip:(ip 10 0 0 100) ~src_port:(8100 + flow)
         ~dst_port:8100 ~size:(64 + k) (Netbase.Packet.Raw ""))
  done;
  check_int "every frame kept" frames (Netbase.Pcap.length cap);
  let words = Obj.reachable_words (Obj.repr cap) in
  let per_record = float_of_int words /. float_of_int frames in
  check (Printf.sprintf "%.3f words a record (%d words)" per_record words) true
    (per_record <= 2.1)

let suite =
  [
    ("ip roundtrip", `Quick, test_ip_roundtrip);
    ("ip invalid", `Quick, test_ip_invalid);
    ("mac fresh unique", `Quick, test_mac_fresh_unique);
    ("firewall default allow", `Quick, test_firewall_default_allow);
    ("firewall locked down", `Quick, test_firewall_locked_down);
    ("firewall allow peer", `Quick, test_firewall_allow_peer);
    ("firewall first match", `Quick, test_firewall_first_match_wins);
    ("udp end to end", `Quick, test_udp_end_to_end);
    ("udp closed port", `Quick, test_udp_closed_port_counted);
    ("udp ingress firewall", `Quick, test_udp_blocked_by_ingress_firewall);
    ("arp resolves once", `Quick, test_arp_resolution_once);
    ("arp poisoning works on dynamic cache", `Quick, test_arp_poisoning_dynamic_cache);
    ("static arp defeats poisoning", `Quick, test_arp_poisoning_defeated_by_static_entry);
    ("arp_ignore on multihomed host", `Quick, test_arp_ignore_multihomed);
    ("static switch blocks unknown mac", `Quick, test_static_switch_blocks_unknown_mac);
    ("static switch blocks mac spoof", `Quick, test_static_switch_blocks_mac_spoof);
    ("learning switch floods then filters", `Quick, test_learning_switch_floods_then_filters);
    ("port scan open/closed/filtered", `Quick, test_port_scan_open_closed_filtered);
    ("port scan vs locked-down host", `Quick, test_port_scan_against_locked_down_host);
    ("router permits acl flow", `Quick, test_router_permits_acl_flow);
    ("router drops unpermitted flow", `Quick, test_router_drops_unpermitted_flow);
    ("cable point to point", `Quick, test_cable_point_to_point);
    ("switch backlog drops flood", `Quick, test_switch_backlog_drops_flood);
    ("remote exploit needs vulnerable service", `Quick, test_remote_exploit_requires_vulnerable_service);
    ("remote exploit blocked by patch/firewall", `Quick, test_remote_exploit_blocked_by_patching_and_firewall);
    ("privilege escalation depends on os", `Quick, test_privilege_escalation_depends_on_os);
    ("pcap tap records traffic", `Quick, test_pcap_tap_records_traffic);
    QCheck_alcotest.to_alcotest prop_pcap_matches_list_model;
    ("pcap holds a record in two words", `Quick, test_pcap_words_per_record);
    QCheck_alcotest.to_alcotest prop_firewall_locked_down_denies_everything;
  ]

let () = Alcotest.run "netbase" [ ("netbase", suite) ]
