(* Tests for the MANA IDS: feature extraction, clustering, and detection
   of the red team's attack classes on synthetic captures. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip = Netbase.Addr.Ip.v

let mac_a = Netbase.Addr.Mac.fresh ()
let mac_b = Netbase.Addr.Mac.fresh ()

let udp_record ~time ~src ~dst ~dst_port ~size =
  Netbase.Pcap.of_frame ~time
    (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:src ~dst_ip:dst
       ~src_port:5000 ~dst_port ~size (Netbase.Packet.Raw "x"))

let arp_reply_record ~time ~sender ~target =
  Netbase.Pcap.of_frame ~time
    {
      Netbase.Packet.src_mac = mac_a;
      dst_mac = mac_b;
      l3 =
        Netbase.Packet.Arp_reply
          { sender_ip = sender; sender_mac = mac_a; target_ip = target; target_mac = mac_b };
    }

(* Regular SCADA chatter: two constant flows, constant sizes (the paper:
   "short constant system updates ... ideal for machine learning"). *)
let baseline_window ~t0 =
  List.concat
    (List.init 10 (fun i ->
         let time = t0 +. (0.1 *. float_of_int i) in
         [
           udp_record ~time ~src:(ip 10 0 0 1) ~dst:(ip 10 0 0 2) ~dst_port:502 ~size:80;
           udp_record ~time ~src:(ip 10 0 0 2) ~dst:(ip 10 0 0 3) ~dst_port:5500 ~size:120;
         ]))

let fill_baseline pcap ~windows =
  (* Pcap.capture expects frames; rebuild from records is awkward, so we
     use frames directly. *)
  for w = 0 to windows - 1 do
    let t0 = float_of_int w in
    List.iteri
      (fun i _ ->
        let time = t0 +. (0.1 *. float_of_int i) in
        Netbase.Pcap.capture pcap ~time
          (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
             ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80
             (Netbase.Packet.Raw "poll"));
        Netbase.Pcap.capture pcap ~time
          (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 2)
             ~dst_ip:(ip 10 0 0 3) ~src_port:5001 ~dst_port:5500 ~size:120
             (Netbase.Packet.Raw "update")))
      (List.init 10 (fun i -> i))
  done

(* --- features ------------------------------------------------------------ *)

let test_features_empty_window () =
  let f = Mana.Features.create () in
  let v = Mana.Features.extract f [] in
  Array.iter (fun x -> check "all zero" true (x = 0.0)) v

let test_features_baseline_shape () =
  let f = Mana.Features.create () in
  let v = Mana.Features.extract f (baseline_window ~t0:0.0) in
  check "20 packets" true (v.(0) = 20.0);
  check "two flows" true (v.(3) = 2.0);
  check "no arp" true (v.(5) = 0.0 && v.(6) = 0.0)

let test_features_detect_scan_fanout () =
  let f = Mana.Features.create () in
  (* Learn baseline flows first, then freeze. *)
  ignore (Mana.Features.extract f (baseline_window ~t0:0.0));
  Mana.Features.freeze f;
  let scan =
    List.init 50 (fun i ->
        udp_record ~time:(float_of_int i *. 0.01) ~src:(ip 10 0 0 99) ~dst:(ip 10 0 0 (i mod 10))
          ~dst_port:(1000 + i) ~size:40)
  in
  let v = Mana.Features.extract f scan in
  check "high fanout" true (v.(8) >= 40.0);
  check "many new flows" true (v.(4) >= 40.0)

let test_features_detect_unsolicited_arp () =
  let f = Mana.Features.create () in
  Mana.Features.freeze f;
  let storm =
    List.init 20 (fun i ->
        arp_reply_record ~time:(float_of_int i *. 0.05) ~sender:(ip 10 0 0 2)
          ~target:(ip 10 0 0 1))
  in
  let v = Mana.Features.extract f storm in
  check "unsolicited ratio 1.0" true (v.(7) = 1.0);
  check "arp replies counted" true (v.(6) = 20.0)

(* --- kmeans ----------------------------------------------------------------- *)

let test_kmeans_separates_blobs () =
  let rng = Sim.Rng.create 5L in
  let blob center = List.init 20 (fun i -> [| center +. (0.01 *. float_of_int i); center |]) in
  let data = blob 0.0 @ blob 10.0 in
  let model = Mana.Kmeans.train ~rng ~k:2 ~iterations:20 data in
  check "training points near centroids" true
    (List.for_all (fun p -> Mana.Kmeans.distance model p < 1.0) data);
  check "outlier far" true (Mana.Kmeans.distance model [| 50.0; 50.0 |] > 20.0)

let test_kmeans_rejects_empty () =
  let rng = Sim.Rng.create 6L in
  Alcotest.check_raises "no data" (Invalid_argument "Kmeans.train: no data") (fun () ->
      ignore (Mana.Kmeans.train ~rng ~k:2 ~iterations:5 []))

(* --- detector ------------------------------------------------------------------ *)

let make_trained_detector () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let pcap = Netbase.Pcap.create () in
  fill_baseline pcap ~windows:30;
  let det = Mana.Detector.create ~engine ~trace () in
  Mana.Detector.train det ~rng:(Sim.Rng.create 17L) pcap ~t0:0.0 ~t1:30.0;
  (engine, det, pcap)

let test_detector_quiet_on_baseline () =
  let _, det, pcap = make_trained_detector () in
  (* 20 more windows of the same traffic: no alerts. *)
  for w = 30 to 49 do
    let t0 = float_of_int w in
    List.iter (fun i ->
        Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
          (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
             ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80
             (Netbase.Packet.Raw "poll"));
        Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
          (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 2)
             ~dst_ip:(ip 10 0 0 3) ~src_port:5001 ~dst_port:5500 ~size:120
             (Netbase.Packet.Raw "update")))
      (List.init 10 (fun i -> i));
    Mana.Detector.evaluate det pcap
  done;
  check_int "no false alerts" 0 (List.length (Mana.Detector.alerts det));
  check_int "twenty windows scored" 20 (Mana.Detector.windows_scored det)

let test_detector_flags_port_scan () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    (* Baseline chatter continues... *)
    Netbase.Pcap.capture pcap ~time:t0
      (Netbase.Packet.udp_frame ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(ip 10 0 0 1)
         ~dst_ip:(ip 10 0 0 2) ~src_port:5000 ~dst_port:502 ~size:80 (Netbase.Packet.Raw "p"));
    (* ...plus a scanner sweeping ports. *)
    for i = 0 to 60 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.01 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 99)
           ~dst_ip:(ip 10 0 0 (1 + (i mod 5))) ~src_port:40001 ~dst_port:(1000 + i) ~size:40
           Netbase.Packet.Scan_probe)
    done;
    Mana.Detector.evaluate det pcap
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0);
  check "categorised as scan/probe or new flows" true
    (List.mem "scan-or-probe" (Mana.Detector.alert_categories det))

let test_detector_flags_flood () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    for i = 0 to 2000 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.0004 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 66)
           ~dst_ip:(ip 10 0 0 2) ~src_port:44444 ~dst_port:8120 ~size:1400
           (Netbase.Packet.Raw "flood"))
    done;
    Mana.Detector.evaluate det pcap
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0)

let test_detector_flags_arp_poisoning () =
  let _, det, pcap = make_trained_detector () in
  for w = 30 to 33 do
    let t0 = float_of_int w in
    (* Gratuitous ARP replies every 100 ms, as the poisoner maintains its
       hold on the victims' caches. *)
    for i = 0 to 9 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.1 *. float_of_int i))
        {
          Netbase.Packet.src_mac = mac_b;
          dst_mac = mac_a;
          l3 =
            Netbase.Packet.Arp_reply
              { sender_ip = ip 10 0 0 2; sender_mac = mac_b; target_ip = ip 10 0 0 1;
                target_mac = mac_a };
        }
    done;
    Mana.Detector.evaluate det pcap
  done;
  check "alerted" true (List.length (Mana.Detector.alerts det) > 0);
  check "categorised as arp anomaly" true
    (List.mem "arp-anomaly" (Mana.Detector.alert_categories det))

let test_detector_requires_training () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let det = Mana.Detector.create ~engine ~trace () in
  let pcap = Netbase.Pcap.create () in
  check "untrained" false (Mana.Detector.is_trained det);
  Alcotest.check_raises "evaluate before train"
    (Invalid_argument "Detector.evaluate: not trained") (fun () ->
      Mana.Detector.evaluate det pcap)

(* --- board -------------------------------------------------------------------- *)

let test_board_conditions () =
  let engine, det, pcap = make_trained_detector () in
  let board = Mana.Board.create ~engine () in
  Mana.Board.add_network board ~name:"operations" det;
  check "normal at rest" true (Mana.Board.overall board = Mana.Board.Normal);
  (* Inject a flood to raise alerts. *)
  for w = 30 to 35 do
    let t0 = float_of_int w in
    for i = 0 to 1500 do
      Netbase.Pcap.capture pcap ~time:(t0 +. (0.0005 *. float_of_int i))
        (Netbase.Packet.udp_frame ~src_mac:mac_b ~dst_mac:mac_a ~src_ip:(ip 10 0 0 66)
           ~dst_ip:(ip 10 0 0 2) ~src_port:44444 ~dst_port:8120 ~size:1400
           (Netbase.Packet.Raw "flood"))
    done;
    Mana.Detector.evaluate det pcap
  done;
  check "critical under sustained attack" true (Mana.Board.overall board = Mana.Board.Critical);
  let rendering = Mana.Board.render board in
  check "board names the network" true
    (String.length rendering > 0
    &&
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
      scan 0
    in
    contains rendering "operations" && contains rendering "CRITICAL")

let test_board_multiple_networks () =
  let engine, det_ops, _ = make_trained_detector () in
  let board = Mana.Board.create ~engine () in
  Mana.Board.add_network board ~name:"ops" det_ops;
  Mana.Board.add_network board ~name:"enterprise" det_ops;
  (* Rendering covers both rows. *)
  let r = Mana.Board.render board in
  check "two rows" true (List.length (String.split_on_char '\n' r) >= 3)

let suite =
  [
    ("board conditions", `Quick, test_board_conditions);
    ("board multiple networks", `Quick, test_board_multiple_networks);
    ("features empty window", `Quick, test_features_empty_window);
    ("features baseline shape", `Quick, test_features_baseline_shape);
    ("features detect scan fanout", `Quick, test_features_detect_scan_fanout);
    ("features detect unsolicited arp", `Quick, test_features_detect_unsolicited_arp);
    ("kmeans separates blobs", `Quick, test_kmeans_separates_blobs);
    ("kmeans rejects empty", `Quick, test_kmeans_rejects_empty);
    ("detector quiet on baseline", `Quick, test_detector_quiet_on_baseline);
    ("detector flags port scan", `Quick, test_detector_flags_port_scan);
    ("detector flags flood", `Quick, test_detector_flags_flood);
    ("detector flags arp poisoning", `Quick, test_detector_flags_arp_poisoning);
    ("detector requires training", `Quick, test_detector_requires_training);
  ]

let () = Alcotest.run "mana" [ ("mana", suite) ]
