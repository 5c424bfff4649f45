(* Tests for the field-device layer: Modbus framing, the emulated PLC,
   breakers, and the power topology scenarios. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Modbus ---------------------------------------------------------------- *)

let roundtrip_request req =
  Plc.Modbus.decode_request (Plc.Modbus.encode_request req)

let roundtrip_response resp =
  Plc.Modbus.decode_response (Plc.Modbus.encode_response resp)

let test_modbus_request_roundtrips () =
  let cases =
    [
      Plc.Modbus.Read_coils { addr = 0; count = 7 };
      Plc.Modbus.Write_single_coil { addr = 3; value = true };
      Plc.Modbus.Write_single_coil { addr = 4; value = false };
      Plc.Modbus.Read_holding_registers { addr = 100; count = 16 };
      Plc.Modbus.Write_single_register { addr = 2; value = 0xBEEF };
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Modbus.transaction = 42 + i; unit_id = 1; body } in
      let decoded = roundtrip_request framed in
      check (Printf.sprintf "case %d" i) true (decoded = framed))
    cases

let test_modbus_response_roundtrips () =
  let cases =
    [
      Plc.Modbus.Coil_written { addr = 3; value = true };
      Plc.Modbus.Registers [ 0; 1; 0xFFFF; 7 ];
      Plc.Modbus.Register_written { addr = 9; value = 123 };
      Plc.Modbus.Exception_response { function_code = 1; exception_code = 2 };
    ]
  in
  List.iteri
    (fun i body ->
      let framed = { Plc.Modbus.transaction = i; unit_id = 3; body } in
      let decoded = roundtrip_response framed in
      check (Printf.sprintf "case %d" i) true (decoded = framed))
    cases

let test_modbus_coils_roundtrip_with_padding () =
  (* Coil responses pad to whole bytes; truncation recovers the count. *)
  let bits = [ true; false; true; true; false; false; true; false; true; true ] in
  let framed = { Plc.Modbus.transaction = 1; unit_id = 1; body = Plc.Modbus.Coils bits } in
  match roundtrip_response framed with
  | { Plc.Modbus.body = Plc.Modbus.Coils decoded; _ } ->
      Alcotest.(check (list bool)) "padded bits" bits
        (Plc.Modbus.truncate_coils decoded (List.length bits))
  | _ -> Alcotest.fail "wrong body"

let test_modbus_decode_errors () =
  check "short frame" true
    (match Plc.Modbus.decode_request "abc" with
    | exception Plc.Modbus.Decode_error _ -> true
    | _ -> false);
  (* Unsupported function code. *)
  let bogus = "\x00\x01\x00\x00\x00\x02\x01\x2b" in
  check "unsupported function" true
    (match Plc.Modbus.decode_request bogus with
    | exception Plc.Modbus.Decode_error _ -> true
    | _ -> false)

let prop_modbus_write_coil_roundtrip =
  QCheck.Test.make ~count:200 ~name:"modbus write-coil roundtrips for arbitrary addresses"
    QCheck.(pair (int_bound 0xFFFF) bool)
    (fun (addr, value) ->
      let framed =
        { Plc.Modbus.transaction = 7; unit_id = 1;
          body = Plc.Modbus.Write_single_coil { addr; value } }
      in
      roundtrip_request framed = framed)

let prop_modbus_registers_roundtrip =
  QCheck.Test.make ~count:200 ~name:"modbus register list roundtrips"
    QCheck.(list_of_size Gen.(int_range 0 20) (int_bound 0xFFFF))
    (fun regs ->
      let framed =
        { Plc.Modbus.transaction = 7; unit_id = 1; body = Plc.Modbus.Registers regs }
      in
      roundtrip_response framed = framed)

(* A zero MBAP length once reached [String.sub] with length -1, so this
   8-byte frame raised [Invalid_argument] out of both decoders and, since
   every caller catches only [Decode_error], out of [Sim.Engine.run]. *)
let zero_length_frame = "\x00\x01\x00\x00\x00\x00\x01\x01"

let decode_error f = match f () with exception Plc.Modbus.Decode_error _ -> true | _ -> false

let test_modbus_zero_length_rejected () =
  check "request" true (decode_error (fun () -> Plc.Modbus.decode_request zero_length_frame));
  check "response" true (decode_error (fun () -> Plc.Modbus.decode_response zero_length_frame));
  (* End to end: the frame reaches a PLC over the network and is counted
     as garbage, not raised. *)
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let d = Plc.Device.create ~engine ~trace ~name:"FUZZ" ~n_coils:1 in
  let host = Netbase.Host.create ~engine ~trace "plc-host" in
  let nic = Netbase.Host.add_nic host ~ip:(Netbase.Addr.Ip.v 10 9 9 2) in
  let sender = Netbase.Host.create ~engine ~trace "sender" in
  let s_nic = Netbase.Host.add_nic sender ~ip:(Netbase.Addr.Ip.v 10 9 9 3) in
  let switch = Netbase.Switch.create ~engine ~trace "lan" in
  let (_ : int) = Netbase.Host.plug_into_switch host nic switch in
  let (_ : int) = Netbase.Host.plug_into_switch sender s_nic switch in
  Plc.Device.serve_on d host;
  Netbase.Host.udp_send sender ~dst_ip:(Netbase.Addr.Ip.v 10 9 9 2) ~dst_port:Plc.Modbus.tcp_port
    ~src_port:5000 ~size:8 (Plc.Modbus.Frame zero_length_frame);
  Sim.Engine.run ~until:1.0 engine;
  check_int "counted as garbage" 1 (Sim.Stats.Counter.get (Plc.Device.counters d) "modbus.garbage")

(* Rewrite the MBAP length field to cover the frame as it now is. *)
let relength frame =
  if String.length frame < 6 then frame
  else begin
    let b = Bytes.of_string frame in
    let len = (String.length frame - 6) land 0xFFFF in
    Bytes.set b 4 (Char.chr (len lsr 8));
    Bytes.set b 5 (Char.chr (len land 0xFF));
    Bytes.to_string b
  end

(* Bytes past the MBAP length, or past a PDU's fields, were once ignored,
   so a second spelling of the same request decoded. *)
let test_modbus_trailing_bytes_rejected () =
  let read =
    Plc.Modbus.encode_request
      { Plc.Modbus.transaction = 1; unit_id = 1; body = Plc.Modbus.Read_coils { addr = 0; count = 3 } }
  in
  check "past the MBAP length" true
    (decode_error (fun () -> Plc.Modbus.decode_request (read ^ "zz")));
  check "inside the MBAP length" true
    (decode_error (fun () -> Plc.Modbus.decode_request (relength (read ^ "zz"))));
  (* A coil value other than 0xFF00 or 0x0000 would re-encode as off. *)
  let write =
    Plc.Modbus.encode_request
      { Plc.Modbus.transaction = 1; unit_id = 1;
        body = Plc.Modbus.Write_single_coil { addr = 0; value = false } }
  in
  check "odd coil value" true
    (decode_error (fun () ->
         Plc.Modbus.decode_request (String.sub write 0 (String.length write - 1) ^ "\x01")))

(* Decoder fuzzing: on arbitrary bytes a decoder raises nothing but
   [Decode_error], and every accepted input is exactly the encoding of
   what it decodes to. Inputs mix raw random bytes with valid encodings
   that are extended, truncated or bit-flipped, before or after the MBAP
   length is made to match again, so the PDU checks are reached too. *)
let u16 = QCheck.Gen.int_bound 0xFFFF

let gen_modbus_request =
  QCheck.Gen.(
    map3
      (fun transaction unit_id body -> Plc.Modbus.encode_request { transaction; unit_id; body })
      u16 (int_bound 0xFF)
      (oneof
         [
           map2 (fun addr count -> Plc.Modbus.Read_coils { addr; count }) u16 u16;
           map2 (fun addr value -> Plc.Modbus.Write_single_coil { addr; value }) u16 bool;
           map2 (fun addr count -> Plc.Modbus.Read_holding_registers { addr; count }) u16 u16;
           map2 (fun addr value -> Plc.Modbus.Write_single_register { addr; value }) u16 u16;
         ]))

let gen_modbus_response =
  QCheck.Gen.(
    map3
      (fun transaction unit_id body -> Plc.Modbus.encode_response { transaction; unit_id; body })
      u16 (int_bound 0xFF)
      (oneof
         [
           map (fun bits -> Plc.Modbus.Coils bits) (list_size (int_bound 40) bool);
           map2 (fun addr value -> Plc.Modbus.Coil_written { addr; value }) u16 bool;
           map (fun regs -> Plc.Modbus.Registers regs) (list_size (int_bound 20) u16);
           map2 (fun addr value -> Plc.Modbus.Register_written { addr; value }) u16 u16;
           map2
             (fun function_code exception_code ->
               Plc.Modbus.Exception_response { function_code; exception_code })
             (int_bound 0x7F) (int_bound 0xFF);
         ]))

let mutate frame =
  QCheck.Gen.(
    let n = String.length frame in
    oneof
      [
        return frame;
        map (fun junk -> frame ^ junk) (string_size (int_range 1 8));
        map (fun k -> String.sub frame 0 k) (int_bound (n - 1));
        map2
          (fun i bit ->
            let b = Bytes.of_string frame in
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
          map relength (gen_valid >>= mutate);
        ])

let decode_total_canonical decode encode s =
  match decode s with
  | exception Plc.Modbus.Decode_error _ -> true
  | framed -> String.equal (encode framed) s

let prop_modbus_request_decode_canonical =
  QCheck.Test.make ~count:2000 ~name:"modbus request decode is total and canonical"
    (gen_fuzz_frame gen_modbus_request)
    (decode_total_canonical Plc.Modbus.decode_request Plc.Modbus.encode_request)

let prop_modbus_response_decode_canonical =
  QCheck.Test.make ~count:2000 ~name:"modbus response decode is total and canonical"
    (gen_fuzz_frame gen_modbus_response)
    (decode_total_canonical Plc.Modbus.decode_response Plc.Modbus.encode_response)

(* --- Breaker ------------------------------------------------------------------ *)

let test_breaker_actuation_delay () =
  let engine = Sim.Engine.create () in
  let b = Plc.Breaker.create ~engine "B1" in
  let delay = Plc.Breaker.actuation_delay in
  check "initially closed" true (Plc.Breaker.is_closed b);
  Plc.Breaker.command b Plc.Breaker.Open;
  check "not yet moved" true (Plc.Breaker.is_closed b);
  Sim.Engine.run ~until:(0.5 *. delay) engine;
  check "still moving" true (Plc.Breaker.is_closed b);
  Sim.Engine.run ~until:(2.0 *. delay) engine;
  check "now open" false (Plc.Breaker.is_closed b);
  check_int "one actuation" 1 (Plc.Breaker.actuations b)

let test_breaker_superseded_command () =
  let engine = Sim.Engine.create () in
  let b = Plc.Breaker.create ~engine "B1" in
  Plc.Breaker.command b Plc.Breaker.Open;
  Sim.Engine.run ~until:(0.5 *. Plc.Breaker.actuation_delay) engine;
  (* Countermand before the first actuation lands. *)
  Plc.Breaker.command b Plc.Breaker.Closed;
  Sim.Engine.run ~until:0.5 engine;
  check "stays closed" true (Plc.Breaker.is_closed b);
  check_int "no net actuation" 0 (Plc.Breaker.actuations b)

let test_breaker_force_immediate () =
  let engine = Sim.Engine.create () in
  let b = Plc.Breaker.create ~engine "B1" in
  let changes = ref 0 in
  Plc.Breaker.on_change b (fun _ -> incr changes);
  Plc.Breaker.force b Plc.Breaker.Open;
  check "immediate" false (Plc.Breaker.is_closed b);
  Plc.Breaker.toggle_force b;
  check "toggled back" true (Plc.Breaker.is_closed b);
  check_int "two change events" 2 !changes

(* --- Device --------------------------------------------------------------------- *)

let make_device () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let d = Plc.Device.create ~engine ~trace ~name:"TEST" ~n_coils:3 in
  let breakers =
    Array.init 3 (fun i ->
        let b = Plc.Breaker.create ~engine (Printf.sprintf "B%d" i) in
        Plc.Device.wire_breaker d ~coil:i b;
        b)
  in
  (engine, d, breakers)

let test_device_coil_write_drives_breaker () =
  let engine, d, breakers = make_device () in
  let req =
    { Plc.Modbus.transaction = 1; unit_id = 1;
      body = Plc.Modbus.Write_single_coil { addr = 1; value = false } }
  in
  (match Plc.Device.handle_request d req with
  | { Plc.Modbus.body = Plc.Modbus.Coil_written { addr = 1; value = false }; _ } -> ()
  | _ -> Alcotest.fail "unexpected response");
  Sim.Engine.run ~until:1.0 engine;
  check "breaker opened" false (Plc.Breaker.is_closed breakers.(1));
  check "others untouched" true (Plc.Breaker.is_closed breakers.(0))

let test_device_holding_registers_reflect_actual () =
  let engine, d, breakers = make_device () in
  Plc.Breaker.force breakers.(2) Plc.Breaker.Open;
  Sim.Engine.run ~until:0.1 engine;
  let req =
    { Plc.Modbus.transaction = 2; unit_id = 1;
      body = Plc.Modbus.Read_holding_registers { addr = 0; count = 3 } }
  in
  match Plc.Device.handle_request d req with
  | { Plc.Modbus.body = Plc.Modbus.Registers regs; _ } ->
      Alcotest.(check (list int)) "actual positions" [ 1; 1; 0 ] regs
  | _ -> Alcotest.fail "unexpected response"

let test_device_out_of_range_is_exception () =
  let _, d, _ = make_device () in
  let req =
    { Plc.Modbus.transaction = 3; unit_id = 1;
      body = Plc.Modbus.Read_coils { addr = 0; count = 99 } }
  in
  match Plc.Device.handle_request d req with
  | { Plc.Modbus.body = Plc.Modbus.Exception_response { exception_code = 2; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected illegal-address exception"

let test_device_compromised_logic_ignores_commands () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let d = Plc.Device.create ~engine ~trace ~name:"VICTIM" ~n_coils:1 in
  let b = Plc.Breaker.create ~engine "B0" in
  Plc.Device.wire_breaker d ~coil:0 b;
  let host = Netbase.Host.create ~engine ~trace "plc-host" in
  let nic = Netbase.Host.add_nic host ~ip:(Netbase.Addr.Ip.v 10 9 9 2) in
  let attacker_host = Netbase.Host.create ~engine ~trace "attacker" in
  let a_nic = Netbase.Host.add_nic attacker_host ~ip:(Netbase.Addr.Ip.v 10 9 9 3) in
  let switch = Netbase.Switch.create ~engine ~trace "lan" in
  let (_ : int) = Netbase.Host.plug_into_switch host nic switch in
  let (_ : int) = Netbase.Host.plug_into_switch attacker_host a_nic switch in
  Plc.Device.serve_on d host;
  check "logic intact" false (Plc.Device.logic_compromised d);
  (* Attacker uploads malicious logic, then the operator's write is
     silently discarded while the attacker can actuate directly. *)
  Netbase.Host.udp_send attacker_host ~dst_ip:(Netbase.Addr.Ip.v 10 9 9 2)
    ~dst_port:Plc.Device.maintenance_port ~src_port:5000 ~size:64
    (Plc.Device.Maint_upload "evil-logic");
  Sim.Engine.run ~until:1.0 engine;
  check "logic compromised" true (Plc.Device.logic_compromised d);
  let req =
    { Plc.Modbus.transaction = 4; unit_id = 1;
      body = Plc.Modbus.Write_single_coil { addr = 0; value = false } }
  in
  ignore (Plc.Device.handle_request d req);
  Sim.Engine.run ~until:2.0 engine;
  check "operator command ignored" true (Plc.Breaker.is_closed b);
  Netbase.Host.udp_send attacker_host ~dst_ip:(Netbase.Addr.Ip.v 10 9 9 2)
    ~dst_port:Plc.Device.maintenance_port ~src_port:5000 ~size:32
    (Plc.Device.Maint_actuate { coil = 0; close = false });
  Sim.Engine.run ~until:3.0 engine;
  check "attacker actuates" false (Plc.Breaker.is_closed b)

let test_device_maintenance_actuate_needs_compromise () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let d = Plc.Device.create ~engine ~trace ~name:"STOCK" ~n_coils:1 in
  let b = Plc.Breaker.create ~engine "B0" in
  Plc.Device.wire_breaker d ~coil:0 b;
  let host = Netbase.Host.create ~engine ~trace "plc-host" in
  let nic = Netbase.Host.add_nic host ~ip:(Netbase.Addr.Ip.v 10 9 9 2) in
  let attacker_host = Netbase.Host.create ~engine ~trace "attacker" in
  let a_nic = Netbase.Host.add_nic attacker_host ~ip:(Netbase.Addr.Ip.v 10 9 9 3) in
  let switch = Netbase.Switch.create ~engine ~trace "lan" in
  let (_ : int) = Netbase.Host.plug_into_switch host nic switch in
  let (_ : int) = Netbase.Host.plug_into_switch attacker_host a_nic switch in
  Plc.Device.serve_on d host;
  Netbase.Host.udp_send attacker_host ~dst_ip:(Netbase.Addr.Ip.v 10 9 9 2)
    ~dst_port:Plc.Device.maintenance_port ~src_port:5000 ~size:32
    (Plc.Device.Maint_actuate { coil = 0; close = false });
  Sim.Engine.run ~until:1.0 engine;
  check "stock firmware ignores direct actuation" true (Plc.Breaker.is_closed b)

(* --- Power scenarios --------------------------------------------------------------- *)

let test_power_energized_paths () =
  let s = Plc.Power.red_team in
  let closed_except names name = not (List.mem name names) in
  let e = Plc.Power.energized s ~is_closed:(closed_except [ "B10-1" ]) in
  check "Building-A dark" true (List.assoc "Building-A" e = false);
  check "Building-B dark (shares B10-1)" true (List.assoc "Building-B" e = false);
  check "Building-C on" true (List.assoc "Building-C" e = true)

let test_power_find_plc () =
  check "finds MAIN" true (Plc.Power.find_plc Plc.Power.red_team "MAIN" <> None);
  check "missing plc" true (Plc.Power.find_plc Plc.Power.red_team "NOPE" = None)

let suite =
  [
    ("modbus request roundtrips", `Quick, test_modbus_request_roundtrips);
    ("modbus response roundtrips", `Quick, test_modbus_response_roundtrips);
    ("modbus coils padding", `Quick, test_modbus_coils_roundtrip_with_padding);
    ("modbus decode errors", `Quick, test_modbus_decode_errors);
    ("modbus zero mbap length rejected", `Quick, test_modbus_zero_length_rejected);
    ("modbus trailing bytes rejected", `Quick, test_modbus_trailing_bytes_rejected);
    ("breaker actuation delay", `Quick, test_breaker_actuation_delay);
    ("breaker superseded command", `Quick, test_breaker_superseded_command);
    ("breaker force immediate", `Quick, test_breaker_force_immediate);
    ("device coil write drives breaker", `Quick, test_device_coil_write_drives_breaker);
    ("device holding registers reflect actual", `Quick, test_device_holding_registers_reflect_actual);
    ("device out of range exception", `Quick, test_device_out_of_range_is_exception);
    ("device compromised logic", `Quick, test_device_compromised_logic_ignores_commands);
    ("device stock firmware resists actuation", `Quick, test_device_maintenance_actuate_needs_compromise);
    ("power energized paths", `Quick, test_power_energized_paths);
    ("power find plc", `Quick, test_power_find_plc);
    QCheck_alcotest.to_alcotest prop_modbus_write_coil_roundtrip;
    QCheck_alcotest.to_alcotest prop_modbus_registers_roundtrip;
    QCheck_alcotest.to_alcotest prop_modbus_request_decode_canonical;
    QCheck_alcotest.to_alcotest prop_modbus_response_decode_canonical;
  ]

let () = Alcotest.run "plc" [ ("plc", suite) ]
