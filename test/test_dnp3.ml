(* Tests for the DNP3 subset and the RTU outstation: framing roundtrips,
   checksum rejection, event buffering/overflow, operate commands, and
   the end-to-end RTU-behind-proxy deployment. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- codec -------------------------------------------------------------- *)

let roundtrip_request r = Plc.Dnp3.decode_request (Plc.Dnp3.encode_request r)

let roundtrip_response r = Plc.Dnp3.decode_response (Plc.Dnp3.encode_response r)

let test_request_roundtrips () =
  let cases =
    [
      Plc.Dnp3.Read_class { classes = [ 0 ] };
      Plc.Dnp3.Read_class { classes = [ 1; 2; 3 ] };
      Plc.Dnp3.Operate { index = 7; close = true };
      Plc.Dnp3.Operate { index = 1000; close = false };
      Plc.Dnp3.Clear_events;
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Dnp3.sequence = i land 0xFF; body } in
      check (Printf.sprintf "case %d" i) true (roundtrip_request framed = framed))
    cases

let test_response_roundtrips () =
  let cases =
    [
      Plc.Dnp3.Static_data [ true; false; true; true; false ];
      Plc.Dnp3.Static_data [];
      Plc.Dnp3.Events
        [
          { Plc.Dnp3.ev_index = 3; ev_closed = false; ev_time = 12.5 };
          { Plc.Dnp3.ev_index = 0; ev_closed = true; ev_time = 13.75 };
        ];
      Plc.Dnp3.Operate_ack { op_index = 2; op_close = true; success = true };
      Plc.Dnp3.Operate_ack { op_index = 9; op_close = false; success = false };
      Plc.Dnp3.Events_cleared;
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Dnp3.sequence = i; body } in
      check (Printf.sprintf "case %d" i) true (roundtrip_response framed = framed))
    cases

let test_checksum_rejected () =
  let bytes =
    Plc.Dnp3.encode_request { Plc.Dnp3.sequence = 1; body = Plc.Dnp3.Clear_events }
  in
  (* Corrupt one payload byte. *)
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted (Bytes.length corrupted - 1)
    (Char.chr (Char.code (Bytes.get corrupted (Bytes.length corrupted - 1)) lxor 0xFF));
  check "corruption detected" true
    (match Plc.Dnp3.decode_request (Bytes.to_string corrupted) with
    | exception Plc.Dnp3.Decode_error _ -> true
    | _ -> false)

let test_bad_start_bytes_rejected () =
  check "garbage rejected" true
    (match Plc.Dnp3.decode_request "\x00\x00\x00\x00\x00\x00" with
    | exception Plc.Dnp3.Decode_error _ -> true
    | _ -> false)

let prop_operate_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dnp3 operate roundtrips"
    QCheck.(pair (int_bound 0xFFFF) bool)
    (fun (index, close) ->
      let framed = { Plc.Dnp3.sequence = 9; body = Plc.Dnp3.Operate { index; close } } in
      roundtrip_request framed = framed)

let prop_static_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dnp3 static data roundtrips"
    QCheck.(list_of_size Gen.(int_range 0 40) bool)
    (fun bits ->
      let framed = { Plc.Dnp3.sequence = 3; body = Plc.Dnp3.Static_data bits } in
      roundtrip_response framed = framed)

let decode_error f = match f () with exception Plc.Dnp3.Decode_error _ -> true | _ -> false

(* Link framing as the encoder writes it: start bytes, little-endian
   length and additive checksum, payload. Lets a test hand the
   application layer any payload behind a valid frame. *)
let reframe payload =
  let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
  let sum = String.fold_left (fun acc c -> (acc + Char.code c) land 0xFFFF) 0 payload in
  "\x05\x64" ^ le16 (String.length payload) ^ le16 sum ^ payload

let payload_of frame = String.sub frame 6 (String.length frame - 6)

(* Each of these once decoded to a value whose encoding differs from the
   input: trailing bytes past the frame or past the fields, a flag byte
   other than 0 or 1, and a millisecond timestamp that the encoder's
   truncation (now rounding) turned into the one below it. *)
let test_noncanonical_rejected () =
  let clear = Plc.Dnp3.encode_request { Plc.Dnp3.sequence = 1; body = Plc.Dnp3.Clear_events } in
  check "past the frame" true (decode_error (fun () -> Plc.Dnp3.decode_request (clear ^ "zz")));
  check "past the fields" true
    (decode_error (fun () -> Plc.Dnp3.decode_request (reframe (payload_of clear ^ "zz"))));
  let ack =
    Plc.Dnp3.encode_response
      { Plc.Dnp3.sequence = 1;
        body = Plc.Dnp3.Operate_ack { op_index = 2; op_close = true; success = true } }
  in
  let p = Bytes.of_string (payload_of ack) in
  Bytes.set p 5 '\x07';
  check "flag byte" true
    (decode_error (fun () -> Plc.Dnp3.decode_response (reframe (Bytes.to_string p))));
  let bits =
    Plc.Dnp3.encode_response { Plc.Dnp3.sequence = 1; body = Plc.Dnp3.Static_data [ true ] }
  in
  let p = Bytes.of_string (payload_of bits) in
  Bytes.set p 5 '\x03';
  check "padding bits" true
    (decode_error (fun () -> Plc.Dnp3.decode_response (reframe (Bytes.to_string p))));
  let events =
    Plc.Dnp3.encode_response
      { Plc.Dnp3.sequence = 1;
        body = Plc.Dnp3.Events [ { Plc.Dnp3.ev_index = 0; ev_closed = true; ev_time = 1.0011 } ] }
  in
  (* The field holds 1001 ms, which decodes to 1.001 s. *)
  check "timestamp re-encodes" true
    (String.equal events (Plc.Dnp3.encode_response (Plc.Dnp3.decode_response events)))

(* Decoder fuzzing: on arbitrary bytes a decoder raises nothing but
   [Decode_error], and every accepted input is exactly the encoding of
   what it decodes to. Inputs mix raw random bytes with valid encodings
   that are extended, truncated or bit-flipped, as frames and as
   payloads reframed with a valid checksum, so the application-layer
   checks are reached too. *)
let u16 = QCheck.Gen.int_bound 0xFFFF

let gen_request =
  QCheck.Gen.(
    map2
      (fun sequence body -> Plc.Dnp3.encode_request { sequence; body })
      (int_bound 0xFF)
      (oneof
         [
           map (fun classes -> Plc.Dnp3.Read_class { classes })
             (list_size (int_bound 5) (int_bound 0xFF));
           return Plc.Dnp3.Read_analogs;
           map2 (fun index close -> Plc.Dnp3.Operate { index; close }) u16 bool;
           return Plc.Dnp3.Clear_events;
         ]))

let gen_response =
  QCheck.Gen.(
    let event =
      map3
        (fun ev_index ev_closed ms ->
          { Plc.Dnp3.ev_index; ev_closed; ev_time = float_of_int ms /. 1000.0 })
        u16 bool (int_bound 0x3FFFFFFF)
    in
    map2
      (fun sequence body -> Plc.Dnp3.encode_response { sequence; body })
      (int_bound 0xFF)
      (oneof
         [
           map (fun bits -> Plc.Dnp3.Static_data bits) (list_size (int_bound 40) bool);
           map (fun values -> Plc.Dnp3.Analog_data values)
             (list_size (int_bound 8) (int_range (-0x80000000) 0x7FFFFFFF));
           map (fun events -> Plc.Dnp3.Events events) (list_size (int_bound 5) event);
           map3
             (fun op_index op_close success -> Plc.Dnp3.Operate_ack { op_index; op_close; success })
             u16 bool bool;
           return Plc.Dnp3.Events_cleared;
         ]))

let mutate s =
  QCheck.Gen.(
    let n = String.length s in
    oneof
      [
        return s;
        map (fun junk -> s ^ junk) (string_size (int_range 1 8));
        map (fun k -> String.sub s 0 k) (int_bound (n - 1));
        map2
          (fun i bit ->
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            Bytes.to_string b)
          (int_bound (n - 1)) (int_bound 7);
      ])

let gen_fuzz_frame gen_valid =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      oneof
        [
          string_size (int_bound 24);
          gen_valid >>= mutate;
          map reframe (gen_valid >>= fun f -> mutate (payload_of f));
        ])

let decode_total_canonical decode encode s =
  match decode s with
  | exception Plc.Dnp3.Decode_error _ -> true
  | framed -> String.equal (encode framed) s

let prop_request_decode_canonical =
  QCheck.Test.make ~count:2000 ~name:"dnp3 request decode is total and canonical"
    (gen_fuzz_frame gen_request)
    (decode_total_canonical Plc.Dnp3.decode_request Plc.Dnp3.encode_request)

let prop_response_decode_canonical =
  QCheck.Test.make ~count:2000 ~name:"dnp3 response decode is total and canonical"
    (gen_fuzz_frame gen_response)
    (decode_total_canonical Plc.Dnp3.decode_response Plc.Dnp3.encode_response)

(* --- RTU outstation ------------------------------------------------------- *)

let make_rtu () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let rtu = Plc.Rtu.create ~engine ~trace ~name:"RTU-1" ~n_points:3 () in
  let breakers =
    Array.init 3 (fun i ->
        let b = Plc.Breaker.create ~engine (Printf.sprintf "P%d" i) in
        Plc.Rtu.wire_breaker rtu ~index:i b;
        b)
  in
  (engine, rtu, breakers)

let ask rtu body =
  (Plc.Rtu.handle_request rtu { Plc.Dnp3.sequence = 1; body }).Plc.Dnp3.body

let test_rtu_static_read () =
  let engine, rtu, breakers = make_rtu () in
  Plc.Breaker.force breakers.(1) Plc.Breaker.Open;
  Sim.Engine.run ~until:0.1 engine;
  match ask rtu (Plc.Dnp3.Read_class { classes = [ 0 ] }) with
  | Plc.Dnp3.Static_data bits -> Alcotest.(check (list bool)) "states" [ true; false; true ] bits
  | _ -> Alcotest.fail "expected static data"

let test_rtu_buffers_events_with_timestamps () =
  let engine, rtu, breakers = make_rtu () in
  ignore (Sim.Engine.schedule engine ~delay:1.0 (fun () -> Plc.Breaker.force breakers.(0) Plc.Breaker.Open));
  ignore (Sim.Engine.schedule engine ~delay:2.5 (fun () -> Plc.Breaker.force breakers.(0) Plc.Breaker.Closed));
  Sim.Engine.run ~until:5.0 engine;
  (match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
  | Plc.Dnp3.Events [ e1; e2 ] ->
      check "first event open" false e1.Plc.Dnp3.ev_closed;
      Alcotest.(check (float 0.001)) "device timestamp" 1.0 e1.Plc.Dnp3.ev_time;
      check "second event closed" true e2.Plc.Dnp3.ev_closed;
      Alcotest.(check (float 0.001)) "device timestamp 2" 2.5 e2.Plc.Dnp3.ev_time
  | _ -> Alcotest.fail "expected two events");
  (* Clearing empties the buffer. *)
  (match ask rtu Plc.Dnp3.Clear_events with
  | Plc.Dnp3.Events_cleared -> ()
  | _ -> Alcotest.fail "expected clear ack");
  match ask rtu (Plc.Dnp3.Read_class { classes = [ 1 ] }) with
  | Plc.Dnp3.Events [] -> ()
  | _ -> Alcotest.fail "buffer should be empty"

let test_rtu_event_overflow () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let rtu = Plc.Rtu.create ~engine ~trace ~name:"RTU-S" ~n_points:1 () in
  let b = Plc.Breaker.create ~engine "P0" in
  Plc.Rtu.wire_breaker rtu ~index:0 b;
  let limit = Plc.Rtu.event_buffer_limit in
  for _ = 1 to limit - 1 do
    Plc.Breaker.toggle_force b
  done;
  check "no overflow below the limit" false (Plc.Rtu.events_overflowed rtu);
  for _ = limit to 2 * limit do
    Plc.Breaker.toggle_force b
  done;
  check "overflow flagged" true (Plc.Rtu.events_overflowed rtu);
  check "buffer bounded" true (Plc.Rtu.pending_events rtu <= limit)

let test_rtu_operate () =
  let engine, rtu, breakers = make_rtu () in
  (match ask rtu (Plc.Dnp3.Operate { index = 2; close = false }) with
  | Plc.Dnp3.Operate_ack { success = true; _ } -> ()
  | _ -> Alcotest.fail "expected successful ack");
  Sim.Engine.run ~until:1.0 engine;
  check "breaker opened" false (Plc.Breaker.is_closed breakers.(2));
  match ask rtu (Plc.Dnp3.Operate { index = 99; close = true }) with
  | Plc.Dnp3.Operate_ack { success = false; _ } -> ()
  | _ -> Alcotest.fail "expected failure ack"

(* --- end-to-end: Spire with a DNP3 RTU site -------------------------------- *)

let test_deployment_with_dnp3_rtu () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let scenario =
    {
      Plc.Power.scenario_name = "dnp3-mini";
      plcs =
        [ { Plc.Power.plc_name = "RTUSITE"; breaker_names = [ "R1"; "R2" ]; physical = true } ];
      feeds = [ { Plc.Power.load_name = "Feeder"; path = [ "R1"; "R2" ] } ];
    }
  in
  let config = Prime.Config.red_team () in
  let d =
    Spire.Deployment.create ~dnp3_plcs:[ "RTUSITE" ] ~engine ~trace ~config scenario
  in
  Sim.Engine.run ~until:3.0 engine;
  let hmi = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi in
  Alcotest.(check (option bool)) "hmi populated via dnp3" (Some true)
    (Scada.Hmi.displayed_closed hmi "R1");
  (* Field change flows through the RTU's event buffer. *)
  (match Spire.Deployment.find_breaker d "R1" with
  | Some (_, b) -> Plc.Breaker.force b Plc.Breaker.Open
  | None -> Alcotest.fail "breaker missing");
  Sim.Engine.run ~until:6.0 engine;
  Alcotest.(check (option bool)) "event reached hmi" (Some false)
    (Scada.Hmi.displayed_closed hmi "R1");
  (* Supervisory command goes out as a DNP3 Operate. *)
  ignore (Scada.Hmi.command hmi ~breaker:"R2" ~close:false);
  Sim.Engine.run ~until:12.0 engine;
  (match Spire.Deployment.find_breaker d "R2" with
  | Some (_, b) -> check "operate actuated breaker" false (Plc.Breaker.is_closed b)
  | None -> Alcotest.fail "breaker missing");
  (* And it really is the DNP3 path doing the work: integrity and event
     polls went out, no Modbus poll did, and the RTU acked one operate. *)
  let proxy = (Spire.Deployment.proxies d).(0).Spire.Deployment.p_proxy in
  let count = Sim.Stats.Counter.get (Scada.Proxy.counters proxy) in
  check "frontend is dnp3" true
    (count "poll.integrity" > 0 && count "poll.event" > 0 && count "poll" = 0);
  check_int "operate acked by the rtu" 1 (count "operate.acked")

let suite =
  [
    ("dnp3 request roundtrips", `Quick, test_request_roundtrips);
    ("dnp3 response roundtrips", `Quick, test_response_roundtrips);
    ("dnp3 checksum rejected", `Quick, test_checksum_rejected);
    ("dnp3 bad start bytes rejected", `Quick, test_bad_start_bytes_rejected);
    ("dnp3 noncanonical encodings rejected", `Quick, test_noncanonical_rejected);
    ("rtu static read", `Quick, test_rtu_static_read);
    ("rtu buffers events with timestamps", `Quick, test_rtu_buffers_events_with_timestamps);
    ("rtu event overflow", `Quick, test_rtu_event_overflow);
    ("rtu operate", `Quick, test_rtu_operate);
    ("deployment with dnp3 rtu", `Quick, test_deployment_with_dnp3_rtu);
    QCheck_alcotest.to_alcotest prop_operate_roundtrip;
    QCheck_alcotest.to_alcotest prop_static_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_decode_canonical;
    QCheck_alcotest.to_alcotest prop_response_decode_canonical;
  ]

let () = Alcotest.run "dnp3" [ ("dnp3", suite) ]
