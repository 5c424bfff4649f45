(* Additional netbase edge cases: host overload under flood, router TTL
   and return routing, firewall default directions, promiscuous taps,
   switch counters, and IP spoofing interactions with the firewall. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip = Netbase.Addr.Ip.v

type lan = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  switch : Netbase.Switch.t;
  host_a : Netbase.Host.t;
  host_b : Netbase.Host.t;
}

let make_lan () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let switch = Netbase.Switch.create ~engine ~trace "sw" in
  let host_a = Netbase.Host.create ~engine ~trace "a" in
  let nic_a = Netbase.Host.add_nic host_a ~ip:(ip 10 0 0 1) in
  let (_ : int) = Netbase.Host.plug_into_switch host_a nic_a switch in
  let host_b = Netbase.Host.create ~engine ~trace "b" in
  let nic_b = Netbase.Host.add_nic host_b ~ip:(ip 10 0 0 2) in
  let (_ : int) = Netbase.Host.plug_into_switch host_b nic_b switch in
  { engine; trace; switch; host_a; host_b }

let test_host_overload_sheds_packets () =
  (* A host drops a packet flood beyond its processing capacity (the
     host-level half of the DoS model): a burst of twice what it admits
     at once, arriving faster than it processes. *)
  let lan = make_lan () in
  let burst = int_of_float (2.0 *. Netbase.Host.ingress_rate /. 10.0) in
  let received = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      incr received);
  (* Warm ARP. *)
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:60
    (Netbase.Packet.Raw "warm");
  Sim.Engine.run ~until:0.5 lan.engine;
  for _ = 1 to burst do
    Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:60
      (Netbase.Packet.Raw "x")
  done;
  Sim.Engine.run ~until:5.0 lan.engine;
  check "some delivered" true (!received > 10);
  check "overload drops occurred" true
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_b) "rx.overload_drop" > 0);
  check "well below the offered load" true (!received < burst * 3 / 4)

let test_spoofed_source_passes_address_filter () =
  (* The firewall filters by source address; a spoofed packet claiming an
     allowed address gets through the address check — the reason Spire
     additionally authenticates at the Spines layer. *)
  let lan = make_lan () in
  let fw = Netbase.Host.firewall lan.host_b in
  Netbase.Firewall.set_default fw Netbase.Firewall.Ingress Netbase.Firewall.Deny;
  Netbase.Firewall.add fw
    (Netbase.Firewall.rule ~remote_ip:(ip 10 0 0 50) ~local_port:7000
       ~description:"trusted peer only" Netbase.Firewall.Ingress);
  let received = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      incr received);
  (* Honest packet from a non-allowed address: dropped. *)
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:60
    (Netbase.Packet.Raw "honest");
  Sim.Engine.run ~until:1.0 lan.engine;
  check_int "honest denied" 0 !received;
  (* Spoofed as the trusted peer: admitted by the address filter. *)
  Netbase.Host.udp_send ~spoof_src:(ip 10 0 0 50) lan.host_a ~dst_ip:(ip 10 0 0 2)
    ~dst_port:7000 ~src_port:9 ~size:60 (Netbase.Packet.Raw "spoofed");
  Sim.Engine.run ~until:2.0 lan.engine;
  check_int "spoof passed the address filter" 1 !received

let test_promiscuous_tap_sees_other_traffic () =
  let lan = make_lan () in
  let host_c = Netbase.Host.create ~engine:lan.engine ~trace:lan.trace "sniffer" in
  let nic_c = Netbase.Host.add_nic host_c ~ip:(ip 10 0 0 3) in
  let (_ : int) = Netbase.Host.plug_into_switch host_c nic_c lan.switch in
  let seen = ref 0 in
  Netbase.Host.set_promiscuous nic_c (Some (fun _ -> incr seen));
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ());
  (* Broadcast ARP is always visible to the sniffer. *)
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:60
    (Netbase.Packet.Raw "x");
  Sim.Engine.run ~until:1.0 lan.engine;
  check "sniffer saw the ARP exchange" true (!seen >= 1)

let test_router_multihop_reply_path () =
  (* Request and reply both cross the router (reply routing needs the
     gateway configuration on both sides). *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let sw1 = Netbase.Switch.create ~engine ~trace "net1" in
  let sw2 = Netbase.Switch.create ~engine ~trace "net2" in
  let router = Netbase.Router.create ~engine ~trace "gw" in
  let (_ : Netbase.Host.nic) = Netbase.Router.add_interface router ~ip:(ip 10 1 0 254) sw1 in
  let (_ : Netbase.Host.nic) = Netbase.Router.add_interface router ~ip:(ip 10 2 0 254) sw2 in
  Netbase.Router.permit router ~src_subnet:(ip 10 1 0 0) ~dst_subnet:(ip 10 2 0 0)
    ~description:"fwd" ();
  Netbase.Router.permit router ~src_subnet:(ip 10 2 0 0) ~dst_subnet:(ip 10 1 0 0)
    ~description:"rev" ();
  let client = Netbase.Host.create ~engine ~trace "client" in
  let c_nic = Netbase.Host.add_nic client ~ip:(ip 10 1 0 5) in
  let (_ : int) = Netbase.Host.plug_into_switch client c_nic sw1 in
  Netbase.Host.set_default_gateway client (ip 10 1 0 254);
  let server = Netbase.Host.create ~engine ~trace "server" in
  let s_nic = Netbase.Host.add_nic server ~ip:(ip 10 2 0 7) in
  let (_ : int) = Netbase.Host.plug_into_switch server s_nic sw2 in
  Netbase.Host.set_default_gateway server (ip 10 2 0 254);
  let got_reply = ref false in
  Netbase.Host.udp_bind server ~port:7000 (fun ~src ~dst_port:_ ~size:_ _ ->
      Netbase.Host.udp_send server ~dst_ip:src.Netbase.Addr.ip ~dst_port:src.Netbase.Addr.port
        ~src_port:7000 ~size:30 (Netbase.Packet.Raw "pong"));
  Netbase.Host.udp_bind client ~port:7001 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      got_reply := true);
  Netbase.Host.udp_send client ~dst_ip:(ip 10 2 0 7) ~dst_port:7000 ~src_port:7001 ~size:30
    (Netbase.Packet.Raw "ping");
  Sim.Engine.run ~until:3.0 engine;
  check "request-reply across router" true !got_reply

let test_firewall_egress_default_deny () =
  let lan = make_lan () in
  let fw = Netbase.Host.firewall lan.host_a in
  Netbase.Firewall.set_default fw Netbase.Firewall.Egress Netbase.Firewall.Deny;
  let received = ref 0 in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ ->
      incr received);
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 10 0 0 2) ~dst_port:7000 ~src_port:9 ~size:60
    (Netbase.Packet.Raw "blocked");
  Sim.Engine.run ~until:1.0 lan.engine;
  check_int "egress denied" 0 !received;
  check "counted on sender" true
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_a) "tx.firewall_drop" > 0)

let test_udp_bind_conflict_rejected () =
  let lan = make_lan () in
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ());
  Alcotest.check_raises "double bind"
    (Invalid_argument "Host.udp_bind: b port 7000 already bound") (fun () ->
      Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ()));
  (* Unbinding frees the port. *)
  Netbase.Host.udp_unbind lan.host_b ~port:7000;
  Netbase.Host.udp_bind lan.host_b ~port:7000 (fun ~src:_ ~dst_port:_ ~size:_ _ -> ());
  check "rebound after unbind" true true

let test_no_route_is_counted () =
  let lan = make_lan () in
  (* No NIC on that subnet and no gateway. *)
  Netbase.Host.udp_send lan.host_a ~dst_ip:(ip 172 16 0 1) ~dst_port:7000 ~src_port:9 ~size:60
    (Netbase.Packet.Raw "lost");
  Sim.Engine.run ~until:0.5 lan.engine;
  check_int "no-route counted" 1
    (Sim.Stats.Counter.get (Netbase.Host.counters lan.host_a) "tx.no_route")

let suite =
  [
    ("host overload sheds packets", `Quick, test_host_overload_sheds_packets);
    ("spoofed source passes address filter", `Quick, test_spoofed_source_passes_address_filter);
    ("promiscuous tap", `Quick, test_promiscuous_tap_sees_other_traffic);
    ("router multihop reply path", `Quick, test_router_multihop_reply_path);
    ("firewall egress default deny", `Quick, test_firewall_egress_default_deny);
    ("udp bind conflict rejected", `Quick, test_udp_bind_conflict_rejected);
    ("no route counted", `Quick, test_no_route_is_counted);
  ]

let () = Alcotest.run "netbase-extra" [ ("netbase-extra", suite) ]
