(* Tests for the Spines overlay: topology, intrusion-tolerant flooding
   and its neighbor elimination, authentication, replay rejection,
   hello-driven failure detection, source fairness, the egress queue
   against its reference, the frame manifest check, the unauthenticated
   all-duplicate drop, and the patched-binary exploit model. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip = Netbase.Addr.Ip.v

(* Build an overlay of n daemons, one per host, all on one switch.
   [keyed i] gives daemon i's group key (None = unkeyed build). *)
type overlay = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  switch : Netbase.Switch.t;
  hosts : Netbase.Host.t array;
  nodes : Spines.Node.t array;
}

let make_overlay ?(keyed = fun _ -> Some "group-key") topology =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let switch = Netbase.Switch.create ~engine ~trace "overlay-lan" in
  let ids = Array.of_list (Spines.Topology.nodes topology) in
  let n = Array.length ids in
  let hosts =
    Array.init n (fun i ->
        let h = Netbase.Host.create ~engine ~trace (Printf.sprintf "node%d" ids.(i)) in
        let nic = Netbase.Host.add_nic h ~ip:(ip 10 0 0 (ids.(i) + 1)) in
        let (_ : int) = Netbase.Host.plug_into_switch h nic switch in
        h)
  in
  let nodes =
    Array.init n (fun i ->
        let config =
          { (Spines.Node.default_config topology) with Spines.Node.group_key = keyed ids.(i) }
        in
        Spines.Node.create ~engine ~trace ~host:hosts.(i) ~id:ids.(i) config)
  in
  Array.iteri
    (fun i node ->
      Array.iteri
        (fun j _ -> if i <> j then Spines.Node.set_peer_address node ids.(j) (ip 10 0 0 (ids.(j) + 1)))
        nodes;
      Spines.Node.start node)
    nodes;
  { engine; trace; switch; hosts; nodes }

(* --- Topology ---------------------------------------------------------------- *)

let test_full_mesh () =
  let t = Spines.Topology.full_mesh [ 0; 1; 2; 3 ] in
  check_int "links" 6 (List.length (Spines.Topology.links t));
  check "neighbors sorted" true (Spines.Topology.neighbors t 2 = [| 0; 1; 3 |]);
  check "unknown node has none" true (Spines.Topology.neighbors t 9 = [||]);
  check "adjacent" true (Spines.Topology.adjacent t 2 3 && Spines.Topology.adjacent t 3 2);
  check "not adjacent to itself" false (Spines.Topology.adjacent t 2 2);
  check "unknown node adjacent to none" false
    (Spines.Topology.adjacent t 9 0 || Spines.Topology.adjacent t 0 9);
  let r = Spines.Topology.create ~nodes:[ 0; 1; 2; 3 ]
      ~links:Spines.Topology.[ link 0 1; link 1 2; link 2 3; link 3 0 ] in
  check "ring neighbors adjacent" true
    (List.for_all
       (fun (a, b) -> Spines.Topology.adjacent r a b)
       [ (0, 1); (1, 2); (2, 3); (0, 3) ]);
  check "ring diagonals not adjacent" false
    (Spines.Topology.adjacent r 0 2 || Spines.Topology.adjacent r 1 3)

let test_topology_validation () =
  Alcotest.check_raises "self link" (Invalid_argument "Topology.create: self-link") (fun () ->
      ignore (Spines.Topology.create ~nodes:[ 0; 1 ] ~links:[ Spines.Topology.link 0 0 ]));
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Topology.create: link 0-7 references unknown node") (fun () ->
      ignore (Spines.Topology.create ~nodes:[ 0; 1 ] ~links:[ Spines.Topology.link 0 7 ]))

let line n =
  Spines.Topology.create
    ~nodes:(List.init n (fun i -> i))
    ~links:(List.init (n - 1) (fun i -> Spines.Topology.link i (i + 1)))

let ring n =
  Spines.Topology.create
    ~nodes:(List.init n (fun i -> i))
    ~links:(List.init n (fun i -> Spines.Topology.link i ((i + 1) mod n)))

(* --- Overlay data delivery ------------------------------------------------ *)

let collect_client node ~client ?groups () =
  let received = ref [] in
  Spines.Node.register_client node ~client ?groups (fun ~src ~size:_ payload ->
      received := (src, payload) :: !received);
  received

let test_unicast_floods () =
  let o = make_overlay (line 3) in
  let received = collect_client o.nodes.(2) ~client:7 () in
  let other = collect_client o.nodes.(1) ~client:7 () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:100
    (Spines.Node.To_client { node = 2; client = 7 })
    (Netbase.Packet.Raw "flooded");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "delivered once at destination" 1 (List.length !received);
  check_int "not delivered to other node's client" 0 (List.length !other)

let test_group_delivery_exactly_once () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2; 3 ]) in
  let sinks =
    Array.mapi
      (fun i node -> if i = 0 then ref [] else collect_client node ~client:9 ~groups:[ "replicas" ] ())
      o.nodes
  in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "replicas")
    (Netbase.Packet.Raw "to-all");
  Sim.Engine.run ~until:1.0 o.engine;
  (* Full mesh + flooding would duplicate without dedup. *)
  Array.iteri
    (fun i sink -> if i > 0 then check_int (Printf.sprintf "node %d exactly once" i) 1 (List.length !sink))
    sinks

let test_sender_in_group_gets_local_copy () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1 ]) in
  let self_sink = collect_client o.nodes.(0) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "loop");
  Sim.Engine.run ~until:0.5 o.engine;
  check_int "local subscriber got it" 1 (List.length !self_sink)

(* --- Session groups ---------------------------------------------------------- *)

(* A remote session client on its own machine, on the overlay's LAN,
   attached first to daemon [home] and failing over round the others. *)
let session_client o ~name ~host_octet ?groups ?(home = 0) () =
  let host = Netbase.Host.create ~engine:o.engine ~trace:o.trace name in
  let nic = Netbase.Host.add_nic host ~ip:(ip 10 0 0 host_octet) in
  let (_ : int) = Netbase.Host.plug_into_switch host nic o.switch in
  let n = Array.length o.nodes in
  let daemons = List.init n (fun j -> let i = (home + j) mod n in (i, ip 10 0 0 (i + 1))) in
  let session =
    Spines.Node.Session.create ?groups ~engine:o.engine ~trace:o.trace ~host ~key:"group-key"
      ~daemons ~daemon_session_port:8101 ~name ()
  in
  let got = ref [] in
  Spines.Node.Session.set_handler session (fun ~size:_ payload -> got := payload :: !got);
  Spines.Node.Session.start session;
  (host, session, got)

let session_deliveries o =
  Array.fold_left
    (fun acc node -> acc + Sim.Stats.Counter.get (Spines.Node.counters node) "session.delivered")
    0 o.nodes

let test_session_group_delivery () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let _, _, member = session_client o ~name:"member" ~host_octet:50 ~groups:[ "g" ] () in
  let _, _, outsider = session_client o ~name:"outsider" ~host_octet:51 ~groups:[ "h" ] () in
  Sim.Engine.run ~until:0.5 o.engine;
  Spines.Node.send o.nodes.(1) ~client:1 ~size:40 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "push");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "member in g got it once" 1 (List.length !member);
  check_int "session outside g got nothing" 0 (List.length !outsider);
  check_int "only the hosting daemon relayed it" 1 (session_deliveries o)

let test_session_reattach_replaces_groups () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let _, first, got_first = session_client o ~name:"hmi" ~host_octet:50 ~groups:[ "g" ] () in
  Sim.Engine.run ~until:0.5 o.engine;
  Spines.Node.send o.nodes.(1) ~client:1 ~size:40 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "before");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "joined g" 1 (List.length !got_first);
  (* The client moves to a new machine and re-attaches under the same
     name with another list. *)
  Spines.Node.Session.stop first;
  let _, _, got = session_client o ~name:"hmi" ~host_octet:51 ~groups:[ "h" ] () in
  Sim.Engine.run ~until:1.5 o.engine;
  Spines.Node.send o.nodes.(2) ~client:1 ~size:40 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "old group");
  Spines.Node.send o.nodes.(2) ~client:1 ~size:40 (Spines.Node.To_group "h")
    (Netbase.Packet.Raw "new group");
  Sim.Engine.run ~until:2.0 o.engine;
  check "left g, joined h" true (!got = [ Netbase.Packet.Raw "new group" ]);
  check_int "the daemon relayed only h" 2 (session_deliveries o)

let test_session_group_after_failover () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let _, session, got = session_client o ~name:"hmi" ~host_octet:50 ~groups:[ "g" ] () in
  Sim.Engine.run ~until:0.5 o.engine;
  check_int "attached to daemon 0" 0 (Spines.Node.Session.current_daemon session);
  Spines.Node.stop o.nodes.(0);
  Sim.Engine.run ~until:6.0 o.engine;
  check "failed over" true (Spines.Node.Session.current_daemon session <> 0);
  for i = 1 to 3 do
    Spines.Node.send o.nodes.(2) ~client:1 ~size:40 (Spines.Node.To_group "g")
      (Netbase.Packet.Raw (string_of_int i))
  done;
  Sim.Engine.run ~until:7.0 o.engine;
  check "each message once, in order" true
    (List.rev !got = [ Netbase.Packet.Raw "1"; Netbase.Packet.Raw "2"; Netbase.Packet.Raw "3" ])

(* --- Authentication -------------------------------------------------------- *)

let test_unkeyed_daemon_rejected () =
  (* Node 1 models the red team's daemon rebuilt from the open-source tree
     without the deployment's new encryption keys. *)
  let keyed i = if i = 1 then None else Some "group-key" in
  let o = make_overlay ~keyed (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let sink = collect_client o.nodes.(2) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(1) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "from-unkeyed");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "nothing delivered" 0 (List.length !sink);
  check "peers rejected traffic" true
    (Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(0)) "auth.reject" > 0
     || Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(2)) "auth.reject" > 0)

let test_wrong_key_daemon_rejected () =
  let keyed i = if i = 1 then Some "stale-key" else Some "group-key" in
  let o = make_overlay ~keyed (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let sink = collect_client o.nodes.(2) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(1) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "stale");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "nothing delivered" 0 (List.length !sink)

let test_keyed_member_accepted () =
  (* Control for the two tests above: with the right key, traffic flows.
     This is also the red team's patched-but-keyed binary being accepted
     as a valid member of the network. *)
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let sink = collect_client o.nodes.(2) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(1) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "member");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "delivered" 1 (List.length !sink)

let test_replayed_frame_deduplicated () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1 ]) in
  (* Attacker on the same switch records everything. *)
  let attacker = Netbase.Host.create ~engine:o.engine ~trace:o.trace "mallory" in
  let a_nic = Netbase.Host.add_nic attacker ~ip:(ip 10 0 0 99) in
  let (_ : int) = Netbase.Host.plug_into_switch attacker a_nic o.switch in
  let captured = ref [] in
  Netbase.Switch.add_tap o.switch (fun frame -> captured := frame :: !captured);
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "once");
  Sim.Engine.run ~until:0.5 o.engine;
  check_int "delivered once" 1 (List.length !sink);
  (* Replay every captured frame verbatim. *)
  let frames = !captured in
  List.iter (fun f -> Netbase.Host.inject_frame attacker a_nic f) frames;
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "replay did not duplicate delivery" 1 (List.length !sink)

(* --- Failure detection ------------------------------------------------------ *)

let test_stopped_daemon_detected_and_rerouted () =
  let o = make_overlay (ring 4) in
  let sink = collect_client o.nodes.(2) ~client:9 () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10
    (Spines.Node.To_client { node = 2; client = 9 })
    (Netbase.Packet.Raw "warm");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "warm delivered" 1 (List.length !sink);
  (* Stop node 1 (the red team's first move in the excursion). *)
  Spines.Node.stop o.nodes.(1);
  Sim.Engine.run ~until:4.0 o.engine;
  check "hellos detected the stop" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 down" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10
    (Spines.Node.To_client { node = 2; client = 9 })
    (Netbase.Packet.Raw "after-failure");
  Sim.Engine.run ~until:6.0 o.engine;
  check_int "flooded around the failure" 2 (List.length !sink)

let test_flooding_tolerates_daemon_stop () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2; 3 ]) in
  let sink = collect_client o.nodes.(3) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.stop o.nodes.(1);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "x");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "delivered despite stopped daemon" 1 (List.length !sink)

let test_recovered_daemon_rejoins () =
  let o = make_overlay (line 3) in
  let sink = collect_client o.nodes.(2) ~client:9 () in
  Spines.Node.stop o.nodes.(1);
  Sim.Engine.run ~until:3.0 o.engine;
  (* 0 and 2 are partitioned in a line without the middle daemon. *)
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10
    (Spines.Node.To_client { node = 2; client = 9 })
    (Netbase.Packet.Raw "lost");
  Sim.Engine.run ~until:5.0 o.engine;
  check_int "partitioned" 0 (List.length !sink);
  Spines.Node.start o.nodes.(1);
  Sim.Engine.run ~until:8.0 o.engine;
  Spines.Node.send o.nodes.(0) ~client:1 ~size:10
    (Spines.Node.To_client { node = 2; client = 9 })
    (Netbase.Packet.Raw "healed");
  Sim.Engine.run ~until:10.0 o.engine;
  check_int "healed" 1 (List.length !sink)

(* Flooding must skip a neighbor whose hellos went unanswered, and resume
   once it answers again. Hellos are exactly [overhead_bytes] on the wire,
   so any larger datagram from daemon 0 to daemon 1 carries data. *)
let test_flooding_follows_hello_liveness () =
  let topology = Spines.Topology.full_mesh [ 0; 1; 2 ] in
  let o = make_overlay topology in
  let period = Spines.Node.hello_period in
  let ip0 = ip 10 0 0 1 and ip1 = ip 10 0 0 2 in
  let data_0_to_1 = ref 0 in
  Netbase.Switch.add_tap o.switch (fun frame ->
      match frame.Netbase.Packet.l3 with
      | Netbase.Packet.Ipv4 { src; dst; udp; _ }
        when Netbase.Addr.Ip.equal src ip0 && Netbase.Addr.Ip.equal dst ip1
             && udp.Netbase.Packet.size > Spines.Node.overhead_bytes ->
          incr data_0_to_1
      | _ -> ());
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  let stopped_at = 0.5 in
  Sim.Engine.run ~until:stopped_at o.engine;
  Spines.Node.stop o.nodes.(1);
  let down_by = stopped_at +. Spines.Node.hello_timeout +. period in
  Sim.Engine.run ~until:down_by o.engine;
  check "hellos detected the stop" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 down" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "while-down");
  let restart_at = down_by +. (0.5 *. period) in
  Sim.Engine.run ~until:restart_at o.engine;
  check_int "no data toward the dead neighbor" 0 !data_0_to_1;
  Spines.Node.start o.nodes.(1);
  (* Daemon 0's next hello is sent and acked within two hello periods. *)
  Sim.Engine.run ~until:(restart_at +. (2.0 *. period)) o.engine;
  check "hello acked after restart" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 up" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "after-rejoin");
  Sim.Engine.run ~until:(restart_at +. (3.0 *. period)) o.engine;
  check "data flows to the neighbor again" true (!data_0_to_1 > 0);
  (match !sink with
  | [ (_, Netbase.Packet.Raw "after-rejoin") ] -> ()
  | _ -> Alcotest.fail "expected exactly the post-rejoin message at daemon 1")

(* --- Source fairness ----------------------------------------------------------- *)

let test_insider_flood_is_clipped () =
  (* A compromised daemon floods the overlay; honest hops clip its rate,
     and the honest source's traffic still arrives. *)
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let sink = collect_client o.nodes.(2) ~client:9 ~groups:[ "g" ] () in
  (* Insider on node 1 bursts 2000 messages. *)
  for _ = 1 to 2000 do
    Spines.Node.send o.nodes.(1) ~client:1 ~size:100 (Spines.Node.To_group "g")
      (Netbase.Packet.Raw "flood")
  done;
  (* Honest traffic from node 0 interleaves. *)
  for i = 1 to 10 do
    ignore
      (Sim.Engine.schedule o.engine ~delay:(0.01 *. float_of_int i) (fun () ->
           Spines.Node.send o.nodes.(0) ~client:1 ~size:100 (Spines.Node.To_group "g")
             (Netbase.Packet.Raw "honest")))
  done;
  Sim.Engine.run ~until:2.0 o.engine;
  let honest, flood =
    List.partition (fun (_, p) -> p = Netbase.Packet.Raw "honest") !sink
  in
  check_int "all honest messages delivered" 10 (List.length honest);
  check "flood clipped well below burst" true (List.length flood < 400);
  check "clipping recorded" true
    (Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(2)) "fairness.clipped" > 0)

(* --- Patched-binary exploit ------------------------------------------------------ *)

let test_exploit_finds_no_code_path () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  Spines.Node.inject_exploit o.nodes.(1) "drop-foreign-traffic";
  let sink = collect_client o.nodes.(2) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "x");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "delivery unaffected" 1 (List.length !sink)

(* --- dedup sliding window --------------------------------------------------- *)

let test_window_dedup_and_eviction () =
  let w = Spines.Window.create ~span:4 () in
  check "fresh seq accepted" true (Spines.Window.mark w ~origin:1 ~seq:1);
  check "duplicate rejected" false (Spines.Window.mark w ~origin:1 ~seq:1);
  check "other origin independent" true (Spines.Window.mark w ~origin:2 ~seq:1);
  for seq = 2 to 20 do
    check "advancing seqs accepted" true (Spines.Window.mark w ~origin:1 ~seq)
  done;
  (* seq 20 with span 4 puts the floor at 16: old seqs are gone... *)
  check_int "evicted below horizon" 16 (Spines.Window.evictions w);
  check "stale seq treated as duplicate" false (Spines.Window.mark w ~origin:1 ~seq:3);
  (* ...and memory stays bounded by span per origin. *)
  check "retained bounded" true (Spines.Window.retained w <= 5);
  check "seen in-window seq rejected" false (Spines.Window.mark w ~origin:1 ~seq:18)

let test_window_sequence_jump () =
  (* Sequence numbers come off the wire: a jump to max_int must evict in
     one pass, not step the floor through every sequence in between. *)
  let w = Spines.Window.create () in
  check "seq 1 fresh" true (Spines.Window.mark w ~origin:1 ~seq:1);
  check "seq max_int fresh" true (Spines.Window.mark w ~origin:1 ~seq:max_int);
  check_int "seq 1 evicted" 1 (Spines.Window.evictions w);
  check_int "only max_int retained" 1 (Spines.Window.retained w);
  check "seq 1 now stale" false (Spines.Window.mark w ~origin:1 ~seq:1);
  check "just below the horizon stale" false
    (Spines.Window.mark w ~origin:1 ~seq:(max_int - 4096));
  check "just above the horizon fresh" true
    (Spines.Window.mark w ~origin:1 ~seq:(max_int - 4095))

let test_window_bounds_node_dedup () =
  (* Regression: the node's dedup table grew without bound. Sustained
     traffic past the window must keep it clipped. One message per
     millisecond stays under the per-origin rate limit. *)
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let received = ref 0 in
  Spines.Node.register_client o.nodes.(1) ~client:7 (fun ~src:_ ~size:_ _ -> incr received);
  Sim.Engine.run ~until:1.0 o.engine;
  let sent = Spines.Node.dedup_window + 50 in
  for i = 1 to sent do
    ignore
      (Sim.Engine.schedule o.engine ~delay:(0.001 *. float_of_int i) (fun () ->
           Spines.Node.send o.nodes.(0) ~client:7 ~size:64
             (Spines.Node.To_client { node = 1; client = 7 })
             (Netbase.Packet.Raw "chaff")))
  done;
  Sim.Engine.run ~until:(2.0 +. (0.001 *. float_of_int sent)) o.engine;
  check_int "all delivered" sent !received;
  check "dedup memory clipped to window" true
    (Spines.Node.dedup_retained o.nodes.(1) <= Spines.Node.dedup_window);
  check "evictions counted" true (Spines.Node.dedup_evictions o.nodes.(1) > 0)

(* --- data plane: egress, frames ------------------------------------------------- *)

let test_duplicate_link_rejected () =
  Alcotest.check_raises "same orientation"
    (Invalid_argument "Topology.create: duplicate link 0-1") (fun () ->
      ignore
        (Spines.Topology.create ~nodes:[ 0; 1 ]
           ~links:[ Spines.Topology.link 0 1; Spines.Topology.link 0 1 ]));
  Alcotest.check_raises "reversed orientation"
    (Invalid_argument "Topology.create: duplicate link 1-0") (fun () ->
      ignore
        (Spines.Topology.create ~nodes:[ 0; 1 ]
           ~links:[ Spines.Topology.link 0 1; Spines.Topology.link 1 0 ]))

(* Test messages carry their own origin, so a drain reads as (origin,
   message) pairs. *)
let enqueue q ~origin m = Spines.Egress.enqueue q ~origin (origin, m)

let test_egress_full_queue_refuses () =
  (* A full queue refuses the arrival, whatever its origin, and keeps what
     it holds: no held message is dropped to make room, and the held
     messages still drain FIFO per origin and round-robin across them. *)
  let q = Spines.Egress.create ~capacity:4 () in
  let admitted =
    List.map
      (fun (origin, m) -> enqueue q ~origin m)
      [ (1, "a1"); (1, "a2"); (2, "b1"); (3, "c1") ]
  in
  check "four admitted" true (List.for_all Fun.id admitted);
  let refused =
    List.length
      (List.filter not
         [ enqueue q ~origin:4 "d1"; enqueue q ~origin:1 "a3"; enqueue q ~origin:2 "b2" ])
  in
  check_int "three refusals counted" 3 refused;
  check_int "length stays at capacity" 4 (Spines.Egress.length q);
  check "held messages drain in order" true
    (Spines.Egress.drain q = [ (1, "a1"); (2, "b1"); (3, "c1"); (1, "a2") ]);
  (* Drained, the queue admits again and the cursor carries on after
     origin 1, the one served last. *)
  check "admits once drained" true (enqueue q ~origin:1 "a4" && enqueue q ~origin:2 "b3");
  check "cursor persists past the refusals" true
    (Spines.Egress.drain q = [ (2, "b3"); (1, "a4") ])

let test_egress_round_robin_across_origins () =
  let q = Spines.Egress.create ~capacity:16 () in
  List.iter
    (fun (origin, m) -> ignore (enqueue q ~origin m))
    [ (5, "x1"); (5, "x2"); (5, "x3"); (7, "y1"); (7, "y2"); (7, "y3") ];
  check "origins alternate" true
    (Spines.Egress.drain q
    = [ (5, "x1"); (7, "y1"); (5, "x2"); (7, "y2"); (5, "x3"); (7, "y3") ]);
  (* The fairness cursor persists: after serving origin 7 last, a fresh
     round starts above 7 (wrapping to the smallest origin). *)
  ignore (enqueue q ~origin:5 "x4");
  ignore (enqueue q ~origin:7 "y4");
  let order2 = List.map fst (Spines.Egress.drain q) in
  check "cursor wraps past the last origin served" true (order2 = [ 5; 7 ])

let test_egress_fairness_many_origins () =
  (* Source fairness at deployment scale: 120 origins with unequal
     backlogs (origin o holds 1 + o mod 3 messages). Each drain round
     must serve at most one message per origin, in sorted origin order,
     before any origin is served twice. *)
  let n_origins = 120 in
  let q = Spines.Egress.create ~capacity:1024 () in
  let refused = ref 0 in
  for o = 0 to n_origins - 1 do
    for k = 0 to o mod 3 do
      if not (enqueue q ~origin:o (Printf.sprintf "m%d.%d" o k)) then incr refused
    done
  done;
  let served = Spines.Egress.drain q in
  check_int "nothing refused" 0 !refused;
  (* Walk the serve order and split it into rounds: a round ends when the
     origin id stops increasing. Within a round origins are strictly
     increasing (sorted order, one message each). *)
  let rounds = ref 1 and last = ref (-1) and seen_in_round = Hashtbl.create 256 in
  List.iter
    (fun (o, _) ->
      if o <= !last then begin
        incr rounds;
        Hashtbl.reset seen_in_round;
        last := -1
      end;
      check "origin not served twice in a round" false (Hashtbl.mem seen_in_round o);
      Hashtbl.replace seen_in_round o ();
      last := o)
    served;
  (* Max backlog is 3, so fairness must finish in exactly 3 rounds. *)
  check_int "three rounds for backlog depth three" 3 !rounds;
  (* Per-origin FIFO: origin o's messages appear in enqueue order. *)
  let per_origin = Hashtbl.create 256 in
  List.iter
    (fun (o, m) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt per_origin o) in
      Hashtbl.replace per_origin o (m :: prev))
    served;
  for o = 0 to n_origins - 1 do
    let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt per_origin o)) in
    let expect = List.init ((o mod 3) + 1) (Printf.sprintf "m%d.%d" o) in
    if got <> expect then
      Alcotest.failf "origin %d served out of order: %s" o (String.concat "," got)
  done

let test_egress_drain_order_deterministic () =
  let fill () =
    let q = Spines.Egress.create ~capacity:5 () in
    List.iter
      (fun (origin, m) -> ignore (enqueue q ~origin m))
      [ (9, "a"); (3, "b"); (4, "c"); (9, "d"); (3, "e"); (8, "f"); (4, "g"); (1, "h") ];
    Spines.Egress.drain q
  in
  check "two identical fills drain identically" true (fill () = fill ())

(* --- reference egress queue -------------------------------------------------- *)

(* The queue Spines used before its flat scheduler, kept as the reference
   the scheduler must agree with: origins in a hash table of FIFOs, each
   drain round a sorted, partitioned list of the origins above and below
   the cursor, and refusal once [capacity] messages are held. *)
module Ref_egress = struct
  type 'a t = {
    capacity : int;
    queues : (int, 'a Queue.t) Hashtbl.t;
    mutable cursor : int;
    mutable length : int;
  }

  let create ~capacity = { capacity; queues = Hashtbl.create 8; cursor = min_int; length = 0 }

  let enqueue t ~origin msg =
    if t.length >= t.capacity then false
    else begin
      let q =
        match Hashtbl.find_opt t.queues origin with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace t.queues origin q;
            q
      in
      Queue.push msg q;
      t.length <- t.length + 1;
      true
    end

  let serve_order t =
    let origins = Hashtbl.fold (fun o _ acc -> o :: acc) t.queues [] in
    let after, upto = List.partition (fun o -> o > t.cursor) (List.sort compare origins) in
    after @ upto

  let drain t =
    let out = ref [] in
    while t.length > 0 do
      List.iter
        (fun origin ->
          let q = Hashtbl.find t.queues origin in
          out := Queue.pop q :: !out;
          if Queue.is_empty q then Hashtbl.remove t.queues origin;
          t.cursor <- origin;
          t.length <- t.length - 1)
        (serve_order t)
    done;
    List.rev !out

  let clear t =
    Hashtbl.reset t.queues;
    t.cursor <- min_int;
    t.length <- 0
end

type egress_op = Enq of int | Drain | Clear

(* Origins from a small pool, so origins collide and round-robin, refusal
   and the reclaim of empty origins all come up, plus the extremes. *)
let gen_egress_origin =
  QCheck.Gen.(
    oneof [ int_range (-3) 3; oneofl [ min_int; max_int; -1_000_000; 1 lsl 40 ]; int ])

let gen_egress_ops =
  QCheck.Gen.(
    pair (int_range 1 8)
      (list_size (int_range 0 120)
         (frequency
            [
              (12, map (fun o -> Enq o) gen_egress_origin);
              (3, return Drain);
              (1, return Clear);
            ])))

let print_egress_ops (capacity, ops) =
  Printf.sprintf "capacity %d: %s" capacity
    (String.concat "; "
       (List.map
          (function Enq o -> Printf.sprintf "enq %d" o | Drain -> "drain" | Clear -> "clear")
          ops))

let prop_egress_matches_reference =
  QCheck.Test.make ~count:1000 ~name:"egress drains like the reference queue"
    (QCheck.make ~print:print_egress_ops gen_egress_ops)
    (fun (capacity, ops) ->
      let q = Spines.Egress.create ~capacity () and r = Ref_egress.create ~capacity in
      List.for_all Fun.id
        (List.mapi
           (fun k op ->
             (match op with
             | Enq origin ->
                 Spines.Egress.enqueue q ~origin k = Ref_egress.enqueue r ~origin k
             | Drain -> Spines.Egress.drain q = Ref_egress.drain r
             | Clear ->
                 Spines.Egress.clear q;
                 Ref_egress.clear r;
                 true)
             && Spines.Egress.length q = r.length)
           (ops @ [ Drain ])))

let test_egress_memory_bounded () =
  (* Every origin ever seen used to keep a FIFO alive. Distinct ones,
     each enqueued and drained, must leave the queue's memory bounded by
     its capacity. *)
  let q = Spines.Egress.create ~capacity:16 () in
  for origin = 1 to 20_000 do
    ignore (Spines.Egress.enqueue q ~origin "m");
    ignore (Spines.Egress.drain q)
  done;
  let words = Obj.reachable_words (Obj.repr q) in
  if words > 2_000 then Alcotest.failf "queue holds %d words after draining" words

let frame_metas : Spines.Frame.meta list =
  [
    {
      origin = 3; origin_client = 7; data_seq = 42;
      dst = Spines.Frame.M_client { node = 1; client = 2 }; app_size = 128; unreached = [ 0; 2 ];
    };
    {
      origin = 1; origin_client = 0; data_seq = 7; dst = Spines.Frame.M_group "replicas";
      app_size = 64; unreached = [];
    };
    {
      origin = 2; origin_client = 3; data_seq = 9;
      dst = Spines.Frame.M_client { node = 0; client = 4 }; app_size = 0; unreached = [ 5 ];
    };
    {
      origin = 0; origin_client = 1; data_seq = 1; dst = Spines.Frame.M_session "hmi-1";
      app_size = 32; unreached = [];
    };
  ]

let entry = Spines.Frame.entry

let matches = Spines.Frame.header_matches entry

let test_frame_header_roundtrip () =
  (* Version-4 bytes of the first entry: varint length 11, then zigzag
     varints 3, 7, 42, 128 (two bytes), dst tag 0, node 1, client 2, and
     the stamp: count 2, ids 0 and 2. *)
  Alcotest.(check string) "known entry"
    "\x16\x06\x0e\x54\x80\x02\x00\x02\x04\x04\x00\x04"
    (entry (List.hd frame_metas));
  let header = Spines.Frame.encode_header entry frame_metas in
  Alcotest.(check string) "header is the prefix, then the entries"
    ("\xf5\x04\x00\x04" ^ String.concat "" (List.map entry frame_metas))
    header;
  check "header matches its own messages" true (matches header frame_metas);
  check "reordered messages rejected" false (matches header (List.rev frame_metas));
  check "a subset rejected" false (matches header (List.tl frame_metas));
  check "no messages rejected" false (matches header []);
  Alcotest.check_raises "empty frame"
    (Invalid_argument "Frame.encode_header: sub-message count out of range") (fun () ->
      ignore (Spines.Frame.encode_header entry []))

let test_frame_header_rejects_garbage () =
  let metas = List.filteri (fun i _ -> i < 3) frame_metas in
  let good = Spines.Frame.encode_header entry metas in
  let rejected what bytes = check what false (matches bytes metas) in
  (* Every truncation of a valid header is rejected, not raised on. *)
  for len = 0 to String.length good - 1 do
    rejected (Printf.sprintf "truncated to %d" len) (String.sub good 0 len)
  done;
  let patch s at v =
    let e = Bytes.of_string s in
    Bytes.set_uint8 e at v;
    Bytes.to_string e
  in
  rejected "wrong magic" (patch good 0 0);
  rejected "garbage" (String.make 64 '\xff');
  rejected "trailing bytes" (good ^ "trailing-junk");
  rejected "count above the entries" (patch good 3 4);
  rejected "count below the entries" (patch good 3 2);
  (* Versions 1 to 3 are not accepted: neither their own layouts nor a
     version-4 body relabelled. Version 1 had fixed-width 8-byte ints and
     u32 lengths; version 2 varint entries with a kind byte and a
     priority but no stamp; version 3 added the stamp. *)
  rejected "version byte 1" (patch good 1 1);
  rejected "version byte 2" (patch good 1 2);
  rejected "version byte 3" (patch good 1 3);
  let m = List.hd metas in
  let one = [ m ] and unstamped = [ { m with unreached = [] } ] in
  (* The first meta's version-3 entry (kind 0, priority 5), and its
     version-2 entry without the stamp. *)
  check "version-3 header rejected" false
    (matches "\xf5\x03\x00\x01\x1a\x00\x06\x0e\x54\x0a\x80\x02\x00\x02\x04\x04\x00\x04" one);
  check "version-2 header rejected for an unstamped message" false
    (matches "\xf5\x02\x00\x01\x14\x00\x06\x0e\x54\x0a\x80\x02\x00\x02\x04" unstamped);
  let v1 =
    Wire.encode (fun b ->
        Wire.w_u8 b 0xF5;
        Wire.w_u8 b 1;
        Wire.w_u16 b 1;
        Wire.w_str b
          (Wire.encode (fun e ->
               Wire.w_u8 e 0;
               List.iter (Wire.w_int e) [ 3; 7; 42; 5; 128 ];
               Wire.w_u8 e 0;
               Wire.w_int e 1;
               Wire.w_int e 2)))
  in
  check "version-1 header rejected" false (matches v1 one)

(* A version-4 entry for [m] with [ids] spelled as the stamp, in the
   given order: how a forger would write a stamp [Frame.entry] refuses. *)
let entry_with_stamp (m : Spines.Frame.meta) ids =
  let e = entry { m with unreached = [] } in
  (* One-byte length prefix, and a trailing count byte of zero. *)
  let body_head = String.sub e 1 (String.length e - 2) in
  let stamp =
    Wire.encode (fun b ->
        Wire.w_varint b (List.length ids);
        List.iter (Wire.w_varint b) ids)
  in
  let body = body_head ^ stamp in
  Wire.encode (fun b -> Wire.w_varint b (String.length body)) ^ body

let test_frame_stamp_nudges_rejected () =
  let m : Spines.Frame.meta =
    {
      origin = 0; origin_client = 1; data_seq = 9; dst = Spines.Frame.M_group "g"; app_size = 40;
      unreached = [ 1; 3 ];
    }
  in
  let header ids = "\xf5\x04\x00\x01" ^ entry_with_stamp m ids in
  Alcotest.(check string) "the forger's spelling of the honest stamp is the entry" (entry m)
    (entry_with_stamp m [ 1; 3 ]);
  check "honest stamp matches" true (matches (header [ 1; 3 ]) [ m ]);
  List.iter
    (fun (what, ids) -> check what false (matches (header ids) [ m ]))
    [
      ("changed id", [ 1; 4 ]); ("unsorted", [ 3; 1 ]); ("duplicated id", [ 1; 1; 3 ]);
      ("id dropped", [ 1 ]); ("id added", [ 1; 3; 5 ]); ("empty", []);
    ];
  let with_stamp unreached = { m with unreached } in
  Alcotest.check_raises "unsorted stamp has no entry"
    (Invalid_argument "Frame.entry: stamp not strictly ascending") (fun () ->
      ignore (entry (with_stamp [ 3; 1 ])));
  Alcotest.check_raises "duplicated id has no entry"
    (Invalid_argument "Frame.entry: stamp not strictly ascending") (fun () ->
      ignore (entry (with_stamp [ 1; 1; 3 ])))

(* --- frame manifest properties ------------------------------------------------- *)

let gen_meta =
  let open QCheck.Gen in
  let any_int = oneof [ int; small_signed_int; oneofl [ max_int; min_int; 0; -1 ] ] in
  let name = string_size ~gen:char (int_range 0 300) in
  let dst =
    oneof
      [
        map2 (fun node client -> Spines.Frame.M_client { node; client }) any_int any_int;
        map (fun g -> Spines.Frame.M_group g) name;
        map (fun s -> Spines.Frame.M_session s) name;
      ]
  in
  let stamp = map (List.sort_uniq compare) (list_size (int_range 0 4) any_int) in
  map
    (fun ((origin, origin_client, data_seq), (app_size, dst), unreached) : Spines.Frame.meta ->
      { origin; origin_client; data_seq; dst; app_size; unreached })
    (triple
       (triple any_int any_int (oneof [ any_int; return max_int ]))
       (pair any_int dst) stamp)

(* A meta and a neighbor of it: one field nudged, one stamp id nudged,
   added or dropped, the destination's kind swapped, or nothing changed
   at all. *)
let gen_meta_pair =
  let open QCheck.Gen in
  gen_meta >>= fun (m : Spines.Frame.meta) ->
  let nudge v = oneofl [ v + 1; v - 1; -v; v lxor 64 ] in
  let dst_twin =
    match m.dst with
    | Spines.Frame.M_group g -> Spines.Frame.M_session g
    | Spines.Frame.M_session s -> Spines.Frame.M_group s
    | Spines.Frame.M_client { node; client } -> Spines.Frame.M_client { node = client; client = node }
  in
  let near =
    oneof
      [
        return m;
        map (fun origin -> { m with origin }) (nudge m.origin);
        map (fun data_seq -> { m with data_seq }) (nudge m.data_seq);
        map (fun app_size -> { m with app_size }) (nudge m.app_size);
        return { m with dst = dst_twin };
        map
          (fun v -> { m with unreached = List.sort_uniq compare (v :: m.unreached) })
          (oneof [ small_signed_int; map (fun x -> x + 1) (oneofl (0 :: m.unreached)) ]);
        map
          (fun k -> { m with unreached = List.filteri (fun i _ -> i <> k) m.unreached })
          (int_range 0 4);
        map
          (fun k ->
            let u = List.mapi (fun i x -> if i = k then x + 1 else x) m.unreached in
            { m with unreached = List.sort_uniq compare u })
          (int_range 0 4);
        gen_meta;
      ]
  in
  map (fun m' -> (m, m')) near

let prop_entry_injective =
  QCheck.Test.make ~count:1000 ~name:"distinct metas give distinct entries"
    (QCheck.make gen_meta_pair)
    (fun (a, b) -> a = b = String.equal (entry a) (entry b))

(* An honest header, and candidates for it: itself, random bytes, or the
   honest bytes with one byte changed, inserted or removed. *)
let gen_header_candidate =
  let open QCheck.Gen in
  list_size (int_range 1 4) gen_meta >>= fun metas ->
  let h = Spines.Frame.encode_header entry metas in
  let mutate =
    int_range 0 (String.length h - 1) >>= fun i ->
    char >>= fun c ->
    oneofl
      [
        String.sub h 0 i ^ String.make 1 c ^ String.sub h (i + 1) (String.length h - i - 1);
        String.sub h 0 i ^ String.make 1 c ^ String.sub h i (String.length h - i);
        String.sub h 0 i ^ String.sub h (i + 1) (String.length h - i - 1);
      ]
  in
  map
    (fun candidate -> (metas, h, candidate))
    (oneof [ return h; string_size ~gen:char (int_range 0 64); mutate ])

let prop_header_matches_only_honest =
  QCheck.Test.make ~count:1000 ~name:"frame header matches only its bytes"
    (QCheck.make ~print:(fun (_, _, c) -> String.escaped c) gen_header_candidate)
    (fun (metas, honest, candidate) -> matches candidate metas = String.equal candidate honest)

let test_corrupt_frames_dropped_not_crashing () =
  (* A keyed-but-patched daemon ships frames whose HMAC covers a corrupted
     manifest: receivers must drop them, count them, and keep serving
     honest peers. *)
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  Spines.Node.inject_exploit o.nodes.(0) "corrupt-frames";
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "corrupted");
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "corrupted frame not delivered" 0 (List.length !sink);
  check "malformed frames counted" true
    (Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(1)) "frame.malformed" > 0);
  (* The overlay survives: honest traffic still flows to the same sink. *)
  Spines.Node.send o.nodes.(2) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "honest");
  Sim.Engine.run ~until:2.0 o.engine;
  check_int "honest traffic unaffected" 1 (List.length !sink)

let test_node_egress_overflow_counted () =
  (* A burst of 1 000 sends inside one coalesce window, far past the
     256-message egress bound, must shed load and count it instead of
     growing without bound. The receiver's rate limit clips part of what
     crosses the link, so a crossing is a delivery or a clip. *)
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1 ]) in
  let received = ref 0 in
  Spines.Node.register_client o.nodes.(1) ~client:7 (fun ~src:_ ~size:_ _ -> incr received);
  Sim.Engine.run ~until:0.5 o.engine;
  for _ = 1 to 1000 do
    Spines.Node.send o.nodes.(0) ~client:7 ~size:16
      (Spines.Node.To_client { node = 1; client = 7 })
      (Netbase.Packet.Raw "burst")
  done;
  Sim.Engine.run ~until:2.0 o.engine;
  check_int "each refused send counted" (1000 - 256)
    (Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(0)) "egress.drop");
  let crossed =
    !received + Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(1)) "fairness.clipped"
  in
  check "a full queue got through" true (crossed >= 256);
  check "shed load never arrived" true (crossed < 1000)

(* --- forged frames and the duplicate drop ---------------------------------------- *)

(* A window between two hello rounds (hellos fire every [hello_period]
   from time 0), so the only link traffic in it is the data under test. *)
let quiet_window =
  let period = Spines.Node.hello_period in
  (1.25 *. period, 1.75 *. period)

(* Datagrams larger than a hello from daemon [a] to daemon [b]: data frames. *)
let count_frames o ~a ~b =
  let n = ref 0 in
  let src_ip = ip 10 0 0 (a + 1) and dst_ip = ip 10 0 0 (b + 1) in
  Netbase.Switch.add_tap o.switch (fun frame ->
      match frame.Netbase.Packet.l3 with
      | Netbase.Packet.Ipv4 { src; dst; udp; _ }
        when Netbase.Addr.Ip.equal src src_ip && Netbase.Addr.Ip.equal dst dst_ip
             && udp.Netbase.Packet.size > Spines.Node.overhead_bytes ->
          incr n
      | _ -> ());
  n

(* Daemon 2 has no key, so each frame it sends carries a bad tag. Origin
   0's one neighbor, 3, relays to both 1 and 2; neither is a neighbor of
   0, so 2 relays 0's message on to 1 as well. Daemon 1 sees the message
   first from 3, then again inside 2's forgery, one hop later. *)
let forged_overlay () =
  let keyed i = if i = 2 then None else Some "group-key" in
  make_overlay ~keyed
    (Spines.Topology.create ~nodes:[ 0; 1; 2; 3 ]
       ~links:Spines.Topology.[ link 0 3; link 3 1; link 3 2; link 2 1 ])

let test_forged_duplicate_frame_changes_nothing () =
  let o = forged_overlay () in
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  let forged = count_frames o ~a:2 ~b:1 in
  let start, stop = quiet_window in
  Sim.Engine.run ~until:start o.engine;
  let c name = Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(1)) name in
  let rejects = c "auth.reject" and drops = c "dedup.drop" in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "from-0");
  Sim.Engine.run ~until:stop o.engine;
  check_int "2 forwarded 0's message to 1" 1 !forged;
  check_int "one delivery" 1 (List.length !sink);
  check_int "forged copy counted as a duplicate" 1 (c "dedup.drop" - drops);
  check_int "auth.reject unchanged" 0 (c "auth.reject" - rejects);
  check_int "dedup window holds only 0's message" 1 (Spines.Node.dedup_retained o.nodes.(1))

let test_forged_mixed_frame_rejected_whole () =
  let o = forged_overlay () in
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  (* Daemon 2 answers 0's message with its own, inside the same delivery,
     so both leave 2 for daemon 1 in one coalesced frame. *)
  let answered = ref false in
  Spines.Node.register_client o.nodes.(2) ~client:9 ~groups:[ "g" ] (fun ~src:_ ~size:_ _ ->
      if not !answered then begin
        answered := true;
        Spines.Node.send o.nodes.(2) ~client:9 ~size:50 (Spines.Node.To_group "g")
          (Netbase.Packet.Raw "from-2")
      end);
  let forged = count_frames o ~a:2 ~b:1 in
  let start, stop = quiet_window in
  Sim.Engine.run ~until:start o.engine;
  let c name = Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(1)) name in
  let rejects = c "auth.reject" in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "from-0");
  Sim.Engine.run ~until:stop o.engine;
  check "2 answered" true !answered;
  check_int "one frame from 2 to 1" 1 !forged;
  check_int "frame rejected" 1 (c "auth.reject" - rejects);
  (match !sink with
  | [ (_, Netbase.Packet.Raw "from-0") ] -> ()
  | _ -> Alcotest.fail "expected only 0's message at daemon 1");
  check_int "2's message left no dedup state" 1 (Spines.Node.dedup_retained o.nodes.(1))

let test_readdressed_peer_old_ip_unknown () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1 ]) in
  let sink = collect_client o.nodes.(1) ~client:9 ~groups:[ "g" ] () in
  let c name = Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(1)) name in
  let start, stop = quiet_window in
  Sim.Engine.run ~until:start o.engine;
  Spines.Node.set_peer_address o.nodes.(1) 0 (ip 10 0 0 50);
  let unknown = c "link.unknown_peer" in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "old-ip");
  Sim.Engine.run ~until:stop o.engine;
  check_int "frame from the old IP is from no peer" 1 (c "link.unknown_peer" - unknown);
  check_int "not delivered" 0 (List.length !sink);
  (* Addressing 0 back at its real IP makes it a peer again. *)
  Spines.Node.set_peer_address o.nodes.(1) 0 (ip 10 0 0 1);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "real-ip");
  Sim.Engine.run ~until:(stop +. 0.1) o.engine;
  check_int "delivered from the real IP" 1 (List.length !sink)

(* --- neighbor elimination ---------------------------------------------------- *)

let total o name =
  Array.fold_left
    (fun acc node -> acc + Sim.Stats.Counter.get (Spines.Node.counters node) name)
    0 o.nodes

let group_sinks o = Array.map (fun node -> collect_client node ~client:9 ~groups:[ "g" ] ()) o.nodes

(* A group message on a full mesh with every link up crosses each of the
   origin's links once and no other: relays skip the origin's neighbors,
   which are everyone. *)
let test_full_mesh_one_copy_per_link () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2; 3; 4; 5 ]) in
  let sinks = group_sinks o in
  let start, stop = quiet_window in
  Sim.Engine.run ~until:start o.engine;
  let tx = total o "link.tx" and drops = total o "dedup.drop" in
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "once");
  Sim.Engine.run ~until:stop o.engine;
  check_int "5 link frames" 5 (total o "link.tx" - tx);
  check_int "no duplicates" 0 (total o "dedup.drop" - drops);
  Array.iteri
    (fun i sink -> check_int (Printf.sprintf "daemon %d once" i) 1 (List.length !sink))
    sinks

(* Cuts the links in [cut] (pairs, either orientation) in both
   directions: every frame and hello across them is dropped. *)
let cut_links o cut =
  let is_cut a b = List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) cut in
  Array.iter
    (fun node ->
      let me = Spines.Node.id node in
      Spines.Node.set_fault_injector node
        (Some
           (fun ~peer ->
             if is_cut me peer then
               { Spines.Node.fd_drop = true; fd_duplicate = false; fd_delay = 0.0 }
             else { Spines.Node.fd_drop = false; fd_duplicate = false; fd_delay = 0.0 })))
    o.nodes

(* After the cut links time out: a window between two hello rounds past
   [hello_timeout], so every cut link is marked down at both ends. *)
let after_timeout =
  let period = Spines.Node.hello_period in
  let down = (Float.ceil (Spines.Node.hello_timeout /. period) +. 1.0) *. period in
  (down +. (0.25 *. period), down +. (0.75 *. period))

(* The origin's link to daemon 3 is down, so its stamp names 3, and the
   relays that would otherwise skip 3 (a neighbor of the origin) send it
   the message. *)
let test_cut_link_reached_through_relays () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2; 3; 4; 5 ]) in
  let sinks = group_sinks o in
  cut_links o [ (0, 3) ];
  let to_3 = Array.init 6 (fun a -> count_frames o ~a ~b:3) in
  let start, stop = after_timeout in
  Sim.Engine.run ~until:start o.engine;
  check "hellos marked 0-3 down" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 3 down" <> None);
  Array.iter (fun n -> n := 0) to_3;
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "around");
  Sim.Engine.run ~until:stop o.engine;
  check_int "0 sent nothing toward 3" 0 !(to_3.(0));
  check_int "the four relays each sent 3 a copy" 4
    (Array.fold_left (fun acc n -> acc + !n) 0 to_3);
  Array.iteri
    (fun i sink -> check_int (Printf.sprintf "daemon %d once" i) 1 (List.length !sink))
    sinks

(* Random connected topologies of 2-8 daemons (lines, rings, random
   graphs), some links cut: the daemons reachable from the origin over
   live links each get the message exactly once, and no other daemon
   gets it. The reference is a breadth-first search over the live links. *)
let gen_cut_case =
  let open QCheck.Gen in
  int_range 2 8 >>= fun n ->
  let tree =
    (* A random spanning tree: node i joins a random earlier node. *)
    flatten_l (List.init (n - 1) (fun i -> map (fun p -> (p, i + 1)) (int_range 0 i)))
  in
  let chords =
    list_size (int_range 0 n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  let links =
    oneof
      [
        return (List.init (n - 1) (fun i -> (i, i + 1)));
        return (List.init n (fun i -> (i, (i + 1) mod n)));
        map2 ( @ ) tree chords;
      ]
  in
  links >>= fun links ->
  let links =
    List.sort_uniq compare
      (List.filter_map (fun (a, b) -> if a = b then None else Some (min a b, max a b)) links)
  in
  map2
    (fun keep origin -> (n, links, List.filteri (fun i _ -> not (List.nth keep i)) links, origin))
    (list_repeat (List.length links) (frequency [ (3, return true); (1, return false) ]))
    (int_range 0 (n - 1))

let print_cut_case (n, links, cut, origin) =
  let show l = String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l) in
  Printf.sprintf "n=%d links=[%s] cut=[%s] origin=%d" n (show links) (show cut) origin

let prop_reachable_get_it_once =
  QCheck.Test.make ~count:150 ~name:"live-reachable daemons get each message once"
    (QCheck.make ~print:print_cut_case gen_cut_case)
    (fun (n, links, cut, origin) ->
      let topology =
        Spines.Topology.create ~nodes:(List.init n Fun.id)
          ~links:(List.map (fun (a, b) -> Spines.Topology.link a b) links)
      in
      let o = make_overlay topology in
      let sinks = group_sinks o in
      cut_links o cut;
      let start, stop = after_timeout in
      Sim.Engine.run ~until:start o.engine;
      Spines.Node.send o.nodes.(origin) ~client:1 ~size:50 (Spines.Node.To_group "g")
        (Netbase.Packet.Raw "probe");
      Sim.Engine.run ~until:stop o.engine;
      let live = List.filter (fun l -> not (List.mem l cut)) links in
      let reached = Array.make n false in
      let rec bfs = function
        | [] -> ()
        | v :: rest ->
            let next =
              List.filter_map
                (fun (a, b) ->
                  let w = if a = v then b else if b = v then a else -1 in
                  if w >= 0 && not reached.(w) then begin
                    reached.(w) <- true;
                    Some w
                  end
                  else None)
                live
            in
            bfs (rest @ next)
      in
      reached.(origin) <- true;
      bfs [ origin ];
      Array.for_all2 (fun r sink -> List.length !sink = if r then 1 else 0) reached sinks)

(* [seen] is [mark]'s duplicate verdict, read without marking. *)
let prop_window_seen_matches_mark =
  QCheck.Test.make ~count:200 ~name:"window seen predicts mark"
    QCheck.(list (pair (int_range 0 3) (int_range (-2) 40)))
    (fun ops ->
      let w = Spines.Window.create ~span:8 () in
      List.for_all
        (fun (origin, seq) ->
          let seen = Spines.Window.seen w ~origin ~seq in
          let retained = Spines.Window.retained w in
          let seen_again = Spines.Window.seen w ~origin ~seq in
          Spines.Window.retained w = retained
          && seen = seen_again
          && seen = not (Spines.Window.mark w ~origin ~seq))
        ops)

(* An attacker on the switch records 1's hellos and acks to 0, then, once
   the 0-1 link is cut both ways, replays them every half second. The
   old acks answer hellos 0 sent long ago, so 0 must still mark the link
   down, and its next group message must reach 1 through 2. *)
let test_replayed_hello_ack_keeps_no_link_up () =
  let o = make_overlay (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let sinks = group_sinks o in
  let attacker = Netbase.Host.create ~engine:o.engine ~trace:o.trace "mallory" in
  let a_nic = Netbase.Host.add_nic attacker ~ip:(ip 10 0 0 99) in
  let (_ : int) = Netbase.Host.plug_into_switch attacker a_nic o.switch in
  let recording = ref true and recorded = ref [] in
  Netbase.Switch.add_tap o.switch (fun frame ->
      match frame.Netbase.Packet.l3 with
      | Netbase.Packet.Ipv4 { src; dst; udp; _ }
        when !recording
             && Netbase.Addr.Ip.equal src (ip 10 0 0 2)
             && Netbase.Addr.Ip.equal dst (ip 10 0 0 1)
             && udp.Netbase.Packet.size = Spines.Node.overhead_bytes ->
          recorded := frame :: !recorded
      | _ -> ());
  Sim.Engine.run ~until:2.0 o.engine;
  recording := false;
  check "acks recorded" true (!recorded <> []);
  cut_links o [ (0, 1) ];
  let (_ : Sim.Engine.timer) =
    Sim.Engine.every o.engine ~period:0.5 (fun () ->
        List.iter (Netbase.Host.inject_frame attacker a_nic) !recorded)
  in
  Sim.Engine.run ~until:10.0 o.engine;
  check "0 marked its link to 1 down" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 down" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "after-cut");
  Sim.Engine.run ~until:10.5 o.engine;
  Array.iteri
    (fun i sink -> check_int (Printf.sprintf "daemon %d once" i) 1 (List.length !sink))
    sinks

let suite =
  [
    ("full mesh", `Quick, test_full_mesh);
    ("topology validation", `Quick, test_topology_validation);
    ("unicast it-mode flooding", `Quick, test_unicast_floods);
    ("group delivery exactly once", `Quick, test_group_delivery_exactly_once);
    ("sender in group gets local copy", `Quick, test_sender_in_group_gets_local_copy);
    ("unkeyed daemon rejected", `Quick, test_unkeyed_daemon_rejected);
    ("wrong-key daemon rejected", `Quick, test_wrong_key_daemon_rejected);
    ("keyed member accepted", `Quick, test_keyed_member_accepted);
    ("replayed frames deduplicated", `Quick, test_replayed_frame_deduplicated);
    ("window dedup and eviction", `Quick, test_window_dedup_and_eviction);
    ("window bounds node dedup", `Quick, test_window_bounds_node_dedup);
    ("stopped daemon detected and rerouted", `Quick, test_stopped_daemon_detected_and_rerouted);
    ("flooding tolerates daemon stop", `Quick, test_flooding_tolerates_daemon_stop);
    ("recovered daemon rejoins", `Quick, test_recovered_daemon_rejoins);
    ("flooding follows hello liveness", `Quick, test_flooding_follows_hello_liveness);
    ("insider flood clipped", `Quick, test_insider_flood_is_clipped);
    ("exploit disabled in IT mode", `Quick, test_exploit_finds_no_code_path);
    ("duplicate link rejected", `Quick, test_duplicate_link_rejected);
    ("egress full queue refuses the arrival", `Quick, test_egress_full_queue_refuses);
    ("egress round-robin across origins", `Quick, test_egress_round_robin_across_origins);
    ("egress fairness at 120 origins", `Quick, test_egress_fairness_many_origins);
    ("egress drain order deterministic", `Quick, test_egress_drain_order_deterministic);
    QCheck_alcotest.to_alcotest prop_egress_matches_reference;
    ("egress memory bounded", `Quick, test_egress_memory_bounded);
    ("frame header roundtrip", `Quick, test_frame_header_roundtrip);
    ("frame header rejects garbage", `Quick, test_frame_header_rejects_garbage);
    ("frame stamp nudges rejected", `Quick, test_frame_stamp_nudges_rejected);
    ("corrupt frames dropped not crashing", `Quick, test_corrupt_frames_dropped_not_crashing);
    ("node egress overflow counted", `Quick, test_node_egress_overflow_counted);
    QCheck_alcotest.to_alcotest prop_entry_injective;
    QCheck_alcotest.to_alcotest prop_header_matches_only_honest;
    ("forged duplicate frame changes nothing", `Quick, test_forged_duplicate_frame_changes_nothing);
    ("forged mixed frame rejected whole", `Quick, test_forged_mixed_frame_rejected_whole);
    ("re-addressed peer's old ip unknown", `Quick, test_readdressed_peer_old_ip_unknown);
    ("full mesh: one copy per link", `Quick, test_full_mesh_one_copy_per_link);
    ("cut link reached through relays", `Quick, test_cut_link_reached_through_relays);
    QCheck_alcotest.to_alcotest prop_reachable_get_it_once;
    QCheck_alcotest.to_alcotest prop_window_seen_matches_mark;
    ("window sequence jump", `Quick, test_window_sequence_jump);
    ("session group delivery exactly once", `Quick, test_session_group_delivery);
    ("session re-attach replaces groups", `Quick, test_session_reattach_replaces_groups);
    ("session group delivery after failover", `Quick, test_session_group_after_failover);
    ("replayed hello ack keeps no link up", `Quick, test_replayed_hello_ack_keeps_no_link_up);
  ]

let () = Alcotest.run "spines" [ ("spines", suite) ]
