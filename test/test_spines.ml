(* Tests for the Spines overlay: topology, intrusion-tolerant flooding,
   authentication, replay rejection, hello-driven failure detection,
   source fairness, egress and frame codec, the unauthenticated
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

let make_overlay ?(keyed = fun _ -> Some "group-key") ?(rate = 2000.0)
    ?(dedup_window = 4096) topology =
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
          {
            (Spines.Node.default_config ~dedup_window topology) with
            Spines.Node.group_key = keyed ids.(i);
            source_rate_limit = rate;
          }
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
  check "unknown node has none" true (Spines.Topology.neighbors t 9 = [||])

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
  let config = Spines.Node.default_config topology in
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
  Sim.Engine.run
    ~until:(stopped_at +. config.Spines.Node.hello_timeout +. config.Spines.Node.hello_period)
    o.engine;
  check "hellos detected the stop" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 down" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "while-down");
  Sim.Engine.run ~until:2.5 o.engine;
  check_int "no data toward the dead neighbor" 0 !data_0_to_1;
  Spines.Node.start o.nodes.(1);
  (* Daemon 0's next hello is sent and acked within two hello periods. *)
  Sim.Engine.run ~until:(2.5 +. (2.0 *. config.Spines.Node.hello_period)) o.engine;
  check "hello acked after restart" true
    (Sim.Trace.find o.trace ~category:"spines" ~contains:"node 0: link to 1 up" <> None);
  Spines.Node.send o.nodes.(0) ~client:1 ~size:50 (Spines.Node.To_group "g")
    (Netbase.Packet.Raw "after-rejoin");
  Sim.Engine.run ~until:4.0 o.engine;
  check "data flows to the neighbor again" true (!data_0_to_1 > 0);
  (match !sink with
  | [ (_, Netbase.Packet.Raw "after-rejoin") ] -> ()
  | _ -> Alcotest.fail "expected exactly the post-rejoin message at daemon 1")

(* --- Source fairness ----------------------------------------------------------- *)

let test_insider_flood_is_clipped () =
  (* A compromised daemon floods the overlay; honest hops clip its rate,
     and the honest source's traffic still arrives. *)
  let o = make_overlay ~rate:100.0 (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
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

let test_window_bounds_node_dedup () =
  (* Regression: the node's dedup table grew without bound. With a small
     configured window, sustained traffic must keep it clipped. *)
  let o = make_overlay ~dedup_window:8 (Spines.Topology.full_mesh [ 0; 1; 2 ]) in
  let received = ref 0 in
  Spines.Node.register_client o.nodes.(1) ~client:7 (fun ~src:_ ~size:_ _ -> incr received);
  Sim.Engine.run ~until:1.0 o.engine;
  for _ = 1 to 50 do
    Spines.Node.send o.nodes.(0) ~client:7 ~size:64
      (Spines.Node.To_client { node = 1; client = 7 })
      (Netbase.Packet.Raw "chaff")
  done;
  Sim.Engine.run ~until:3.0 o.engine;
  check_int "all delivered" 50 !received;
  check "dedup memory clipped to window" true (Spines.Node.dedup_retained o.nodes.(1) <= 16);
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

let test_egress_overflow_drops_lowest_priority () =
  let q = Spines.Egress.create ~capacity:4 () in
  ignore (Spines.Egress.enqueue q ~prio:1 ~origin:1 "a1");
  ignore (Spines.Egress.enqueue q ~prio:1 ~origin:1 "a2");
  ignore (Spines.Egress.enqueue q ~prio:2 ~origin:2 "b1");
  ignore (Spines.Egress.enqueue q ~prio:2 ~origin:2 "b2");
  (* Full. A higher-priority arrival evicts from the lowest band... *)
  (match Spines.Egress.enqueue q ~prio:3 ~origin:3 "c1" with
  | Spines.Egress.Evicted "a1" -> ()
  | _ -> Alcotest.fail "expected eviction of the oldest lowest-priority message");
  (* ...while a lowest-priority arrival is itself refused. *)
  (match Spines.Egress.enqueue q ~prio:0 ~origin:4 "d1" with
  | Spines.Egress.Rejected -> ()
  | _ -> Alcotest.fail "expected lowest-priority arrival to be rejected");
  check_int "both drops counted" 2 (Spines.Egress.drops q);
  check_int "length stays at capacity" 4 (Spines.Egress.length q);
  let order = List.map (fun (_, _, m) -> m) (Spines.Egress.drain q) in
  check "highest priority first, survivors in order" true
    (order = [ "c1"; "b1"; "b2"; "a2" ])

let test_egress_round_robin_across_origins () =
  let q = Spines.Egress.create ~capacity:16 () in
  List.iter
    (fun (origin, m) -> ignore (Spines.Egress.enqueue q ~prio:1 ~origin m))
    [ (5, "x1"); (5, "x2"); (5, "x3"); (7, "y1"); (7, "y2"); (7, "y3") ];
  let order = List.map (fun (_, o, m) -> (o, m)) (Spines.Egress.drain q) in
  check "origins alternate within a band" true
    (order = [ (5, "x1"); (7, "y1"); (5, "x2"); (7, "y2"); (5, "x3"); (7, "y3") ]);
  (* The fairness cursor persists: after serving origin 7 last, a fresh
     round starts above 7 (wrapping to the smallest origin). *)
  ignore (Spines.Egress.enqueue q ~prio:1 ~origin:5 "x4");
  ignore (Spines.Egress.enqueue q ~prio:1 ~origin:7 "y4");
  let order2 = List.map (fun (_, o, _) -> o) (Spines.Egress.drain q) in
  check "cursor wraps past the last origin served" true (order2 = [ 5; 7 ])

let test_egress_fairness_many_origins () =
  (* Source fairness at deployment scale: 120 origins with unequal
     backlogs (origin o holds 1 + o mod 3 messages). Each drain round
     must serve at most one message per origin, in sorted origin order,
     before any origin is served twice. *)
  let n_origins = 120 in
  let q = Spines.Egress.create ~capacity:1024 () in
  for o = 0 to n_origins - 1 do
    for k = 0 to o mod 3 do
      ignore (Spines.Egress.enqueue q ~prio:1 ~origin:o (Printf.sprintf "m%d.%d" o k))
    done
  done;
  let served = Spines.Egress.drain q in
  check_int "nothing dropped" 0 (Spines.Egress.drops q);
  (* Walk the serve order and split it into rounds: a round ends when the
     origin id stops increasing. Within a round origins are strictly
     increasing (sorted order, one message each). *)
  let rounds = ref 1 and last = ref (-1) and seen_in_round = Hashtbl.create 256 in
  List.iter
    (fun (_, o, _) ->
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
    (fun (_, o, m) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt per_origin o) in
      Hashtbl.replace per_origin o (m :: prev))
    served;
  for o = 0 to n_origins - 1 do
    let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt per_origin o)) in
    let expect = List.init ((o mod 3) + 1) (Printf.sprintf "m%d.%d" o) in
    if got <> expect then
      Alcotest.failf "origin %d served out of order: %s" o (String.concat "," got)
  done

let test_egress_overflow_eviction_many_origins () =
  (* Overflow at scale: 100 origins fill a 100-slot queue with one
     low-priority message each, then origin 100 sends 50 high-priority
     arrivals. Every arrival must displace the oldest message of the
     most-backlogged lowest-band origin (ties toward the higher origin
     id) — with equal backlogs that walks victims from origin 99 down. *)
  let q = Spines.Egress.create ~capacity:100 () in
  for o = 0 to 99 do
    ignore (Spines.Egress.enqueue q ~prio:1 ~origin:o (Printf.sprintf "low%d" o))
  done;
  check_int "full" 100 (Spines.Egress.length q);
  for k = 0 to 49 do
    match Spines.Egress.enqueue q ~prio:5 ~origin:100 (Printf.sprintf "hi%d" k) with
    | Spines.Egress.Evicted victim ->
        let expect = Printf.sprintf "low%d" (99 - k) in
        if victim <> expect then
          Alcotest.failf "arrival %d evicted %s, expected %s" k victim expect
    | Spines.Egress.Enqueued -> Alcotest.failf "arrival %d admitted without eviction" k
    | Spines.Egress.Rejected -> Alcotest.failf "high-priority arrival %d rejected" k
  done;
  check_int "still at capacity" 100 (Spines.Egress.length q);
  check_int "fifty evictions counted" 50 (Spines.Egress.drops q);
  (* A same-priority arrival against an all-lowest-band queue is itself
     refused once nothing queued is strictly lower-priority. *)
  (match Spines.Egress.enqueue q ~prio:1 ~origin:7 "late" with
  | Spines.Egress.Rejected -> ()
  | _ -> Alcotest.fail "expected same-priority arrival to be rejected");
  (* Drain order: the 50 high-priority messages first (single origin, in
     FIFO order), then the surviving low band fairly across origins. *)
  let order = Spines.Egress.drain q in
  let his = List.filteri (fun i _ -> i < 50) order in
  check "high band drains first, in order" true
    (List.mapi (fun i (p, o, m) -> (p, o, m) = (5, 100, Printf.sprintf "hi%d" i)) his
    |> List.for_all Fun.id);
  let lows = List.filteri (fun i _ -> i >= 50) order in
  check "survivors are origins 0..49 in origin order" true
    (List.mapi (fun i (p, o, m) -> (p, o, m) = (1, i, Printf.sprintf "low%d" i)) lows
    |> List.for_all Fun.id)

let test_egress_drain_order_deterministic () =
  let fill () =
    let q = Spines.Egress.create ~capacity:5 () in
    List.iter
      (fun (prio, origin, m) -> ignore (Spines.Egress.enqueue q ~prio ~origin m))
      [
        (1, 9, "a"); (2, 3, "b"); (1, 4, "c"); (3, 9, "d"); (2, 3, "e");
        (2, 8, "f"); (1, 4, "g"); (3, 1, "h");
      ];
    Spines.Egress.drain q
  in
  check "two identical fills drain identically" true (fill () = fill ())

let test_frame_header_roundtrip () =
  let metas =
    [
      Spines.Frame.M_data
        {
          origin = 3; origin_client = 7; data_seq = 42;
          dst = Spines.Frame.M_client { node = 1; client = 2 };
          priority = 5; app_size = 128;
        };
      Spines.Frame.M_data
        {
          origin = 1; origin_client = 0; data_seq = 7;
          dst = Spines.Frame.M_group "replicas"; priority = 1; app_size = 64;
        };
      Spines.Frame.M_data
        {
          origin = 2; origin_client = 3; data_seq = 9;
          dst = Spines.Frame.M_client { node = 0; client = 4 };
          priority = 0; app_size = 0;
        };
      Spines.Frame.M_data
        {
          origin = 0; origin_client = 1; data_seq = 1;
          dst = Spines.Frame.M_session "hmi-1"; priority = 2; app_size = 32;
        };
    ]
  in
  match Spines.Frame.decode_header (Spines.Frame.encode_header metas) with
  | Some decoded -> check "round-trips" true (decoded = metas)
  | None -> Alcotest.fail "well-formed header failed to decode"

let test_frame_decode_total_on_garbage () =
  let metas =
    [
      Spines.Frame.M_data
        {
          origin = 2; origin_client = 1; data_seq = 9;
          dst = Spines.Frame.M_client { node = 1; client = 4 }; priority = 3; app_size = 16;
        };
      Spines.Frame.M_data
        {
          origin = 0; origin_client = 2; data_seq = 10;
          dst = Spines.Frame.M_group "g"; priority = 1; app_size = 8;
        };
      Spines.Frame.M_data
        {
          origin = 1; origin_client = 0; data_seq = 11;
          dst = Spines.Frame.M_session "hmi"; priority = 2; app_size = 4;
        };
    ]
  in
  let good = Spines.Frame.encode_header metas in
  (* Every truncation of a valid header must decode to None, not raise. *)
  for len = 0 to String.length good - 1 do
    match Spines.Frame.decode_header (String.sub good 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncated header of length %d decoded" len
  done;
  check "wrong magic rejected" true
    (Spines.Frame.decode_header ("\x00" ^ String.sub good 1 (String.length good - 1)) = None);
  check "garbage rejected" true
    (Spines.Frame.decode_header (String.make 64 '\xff') = None);
  (* A header whose count exceeds its entries must also be rejected. *)
  let doctored = good ^ "trailing-junk" in
  check "trailing bytes rejected" true (Spines.Frame.decode_header doctored = None);
  (* A well-formed header whose one entry carries kind byte 1 (the
     retired link-state kind) instead of 0 (data) must be rejected. The
     kind byte follows the header's 4 fixed bytes and the entry's varint
     length. *)
  let one = Spines.Frame.encode_header [ List.hd metas ] in
  let r = Wire.reader one in
  let (_ : int) = Wire.r_u8 r in
  let (_ : int) = Wire.r_u8 r in
  let (_ : int) = Wire.r_u16 r in
  let (_ : int) = Wire.r_varint r in
  let kind_at = String.length one - Wire.remaining r in
  let patch at v =
    let e = Bytes.of_string one in
    Bytes.set_uint8 e at v;
    Bytes.to_string e
  in
  check "rebuilt kind-0 header decodes" true
    (Spines.Frame.decode_header (patch kind_at 0) = Some [ List.hd metas ]);
  check "entry kind 1 rejected" true (Spines.Frame.decode_header (patch kind_at 1) = None);
  (* Version 1 (fixed-width 8-byte ints, u32 lengths) has no decoder:
     neither its own layout nor a version-2 body relabelled 1 decodes. *)
  check "version byte 1 rejected" true (Spines.Frame.decode_header (patch 1 1) = None);
  let v1 =
    Wire.encode (fun b ->
        Wire.w_u8 b 0xF5;
        Wire.w_u8 b 1;
        Wire.w_u16 b 1;
        Wire.w_str b
          (Wire.encode (fun e ->
               Wire.w_u8 e 0;
               List.iter (Wire.w_int e) [ 2; 1; 9; 3; 16 ];
               Wire.w_u8 e 0;
               Wire.w_int e 1;
               Wire.w_int e 4)))
  in
  check "version-1 header rejected" true (Spines.Frame.decode_header v1 = None)

(* --- frame codec properties ---------------------------------------------------- *)

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
  map
    (fun ((origin, origin_client, data_seq), (priority, app_size, dst)) ->
      Spines.Frame.M_data { origin; origin_client; data_seq; dst; priority; app_size })
    (pair
       (triple any_int any_int (oneof [ any_int; return max_int ]))
       (triple any_int any_int dst))

let prop_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame header round-trips random metas"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 8) gen_meta))
    (fun metas -> Spines.Frame.decode_header (Spines.Frame.encode_header metas) = Some metas)

(* Random bytes, and valid headers with one byte changed, inserted or
   removed: whatever decodes must re-encode to exactly those bytes. *)
let gen_header_bytes =
  let open QCheck.Gen in
  let valid = map Spines.Frame.encode_header (list_size (int_range 1 4) gen_meta) in
  let mutate =
    valid >>= fun h ->
    int_range 0 (String.length h - 1) >>= fun i ->
    char >>= fun c ->
    oneofl
      [
        String.sub h 0 i ^ String.make 1 c ^ String.sub h (i + 1) (String.length h - i - 1);
        String.sub h 0 i ^ String.make 1 c ^ String.sub h i (String.length h - i);
        String.sub h 0 i ^ String.sub h (i + 1) (String.length h - i - 1);
      ]
  in
  oneof [ string_size ~gen:char (int_range 0 64); mutate ]

let prop_frame_canonical =
  QCheck.Test.make ~count:1000 ~name:"every decoded frame header re-encodes to itself"
    (QCheck.make ~print:String.escaped gen_header_bytes)
    (fun s ->
      match Spines.Frame.decode_header s with
      | None -> true
      | Some metas -> String.equal (Spines.Frame.encode_header metas) s)

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
     growing without bound. The receiver's rate limit is lifted so every
     frame that crosses the link is delivered. *)
  let o = make_overlay ~rate:1e6 (Spines.Topology.full_mesh [ 0; 1 ]) in
  let received = ref 0 in
  Spines.Node.register_client o.nodes.(1) ~client:7 (fun ~src:_ ~size:_ _ -> incr received);
  Sim.Engine.run ~until:0.5 o.engine;
  for _ = 1 to 1000 do
    Spines.Node.send o.nodes.(0) ~client:7 ~size:16
      (Spines.Node.To_client { node = 1; client = 7 })
      (Netbase.Packet.Raw "burst")
  done;
  Sim.Engine.run ~until:2.0 o.engine;
  check "overflow dropped" true
    (Sim.Stats.Counter.get (Spines.Node.counters o.nodes.(0)) "egress.drop" > 0);
  check "a full queue got through" true (!received >= 256);
  check "shed load never arrived" true (!received < 1000)

(* --- forged frames and the duplicate drop ---------------------------------------- *)

(* A window between two hello rounds (hellos fire every [hello_period]
   from time 0), so the only link traffic in it is the data under test. *)
let quiet_window =
  let period = (Spines.Node.default_config (Spines.Topology.full_mesh [ 0 ])).hello_period in
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

(* Daemon 2 has no key, so each frame it sends carries a bad tag. Daemon 1
   sees 0's message first from 0, then again inside 2's forgery. *)
let forged_mesh () =
  let keyed i = if i = 2 then None else Some "group-key" in
  make_overlay ~keyed (Spines.Topology.full_mesh [ 0; 1; 2 ])

let test_forged_duplicate_frame_changes_nothing () =
  let o = forged_mesh () in
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
  let o = forged_mesh () in
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
  Sim.Engine.run ~until:1.0 o.engine;
  check_int "delivered from the real IP" 1 (List.length !sink)

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
    ("egress overflow drops lowest priority", `Quick, test_egress_overflow_drops_lowest_priority);
    ("egress round-robin across origins", `Quick, test_egress_round_robin_across_origins);
    ("egress fairness at 120 origins", `Quick, test_egress_fairness_many_origins);
    ("egress overflow eviction at 100 origins", `Quick, test_egress_overflow_eviction_many_origins);
    ("egress drain order deterministic", `Quick, test_egress_drain_order_deterministic);
    ("frame header roundtrip", `Quick, test_frame_header_roundtrip);
    ("frame decode total on garbage", `Quick, test_frame_decode_total_on_garbage);
    ("corrupt frames dropped not crashing", `Quick, test_corrupt_frames_dropped_not_crashing);
    ("node egress overflow counted", `Quick, test_node_egress_overflow_counted);
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_frame_canonical;
    ("forged duplicate frame changes nothing", `Quick, test_forged_duplicate_frame_changes_nothing);
    ("forged mixed frame rejected whole", `Quick, test_forged_mixed_frame_rejected_whole);
    ("re-addressed peer's old ip unknown", `Quick, test_readdressed_peer_old_ip_unknown);
    QCheck_alcotest.to_alcotest prop_window_seen_matches_mark;
  ]

let () = Alcotest.run "spines" [ ("spines", suite) ]
