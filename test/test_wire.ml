(* Tests for the binary wire codec: scalar round-trips, malformed-input
   rejection, the canonical varint, and byte stability of every signed
   Prime body across two independent same-seed deployments (signature
   compatibility). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- scalar round-trips ------------------------------------------------- *)

let test_scalar_roundtrips () =
  let enc = Wire.encode in
  let r =
    Wire.reader
      (enc (fun b ->
           Wire.w_u8 b 0;
           Wire.w_u8 b 255;
           Wire.w_u16 b 0xBEEF;
           Wire.w_u32 b 0xDEADBEEF;
           Wire.w_int b 0;
           Wire.w_int b (-1);
           Wire.w_int b max_int;
           Wire.w_int b min_int;
           Wire.w_bool b true;
           Wire.w_bool b false;
           Wire.w_str b "";
           Wire.w_str b "hello\x00world";
           Wire.w_int_array b [| 3; -4; 5 |]))
  in
  check_int "u8 lo" 0 (Wire.r_u8 r);
  check_int "u8 hi" 255 (Wire.r_u8 r);
  check_int "u16" 0xBEEF (Wire.r_u16 r);
  check_int "u32" 0xDEADBEEF (Wire.r_u32 r);
  check_int "int 0" 0 (Wire.r_int r);
  check_int "int -1" (-1) (Wire.r_int r);
  check_int "int max" max_int (Wire.r_int r);
  check_int "int min" min_int (Wire.r_int r);
  check "bool t" true (Wire.r_bool r);
  check "bool f" false (Wire.r_bool r);
  check_str "str empty" "" (Wire.r_str r);
  check_str "str nul" "hello\x00world" (Wire.r_str r);
  Alcotest.(check (array int)) "int array" [| 3; -4; 5 |] (Wire.r_int_array r);
  check "consumed" true (Wire.at_end r)

let test_digest_and_opt () =
  let d = Crypto.Sha256.digest "x" in
  let r =
    Wire.reader
      (Wire.encode (fun b ->
           Wire.w_digest b d;
           Wire.w_opt b Wire.w_str (Some "present");
           Wire.w_opt b Wire.w_str None))
  in
  check_str "digest raw 32 bytes" d (Wire.r_digest r);
  check "opt some" true (Wire.r_opt Wire.r_str r = Some "present");
  check "opt none" true (Wire.r_opt Wire.r_str r = None);
  check "consumed" true (Wire.at_end r)

let test_malformed_rejected () =
  Alcotest.check_raises "u8 range" (Invalid_argument "Wire.w_u8: out of range") (fun () ->
      ignore (Wire.encode (fun b -> Wire.w_u8 b 256)));
  check "digest wrong length raises" true
    (match Wire.encode (fun b -> Wire.w_digest b "short") with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let truncated reads =
    match reads (Wire.reader "\x01") with exception Wire.Truncated -> true | _ -> false
  in
  check "r_u16 truncated" true (truncated Wire.r_u16);
  check "r_int truncated" true (truncated Wire.r_int);
  check "r_digest truncated" true (truncated Wire.r_digest);
  (* A length prefix pointing past the end must not read garbage. *)
  let huge_len = Wire.encode (fun b -> Wire.w_u32 b 1000) in
  check "r_str truncated" true
    (match Wire.r_str (Wire.reader (huge_len ^ "abc")) with
    | exception Wire.Truncated -> true
    | _ -> false);
  (* Nor may it size an array: 2^32 - 1 ints would be 32 GiB. *)
  let max_len = Wire.encode (fun b -> Wire.w_u32 b 0xFFFFFFFF) in
  check "r_int_array truncated" true
    (match Wire.r_int_array (Wire.reader (max_len ^ String.make 16 '\000')) with
    | exception Wire.Truncated -> true
    | _ -> false)

let prop_int_roundtrip =
  QCheck.Test.make ~count:500 ~name:"w_int/r_int round-trips any int"
    QCheck.(oneof [ int; oneofl [ max_int; min_int; 0; -1; 1 ] ])
    (fun i -> Wire.r_int (Wire.reader (Wire.encode (fun b -> Wire.w_int b i))) = i)

(* --- varint ------------------------------------------------------------------- *)

let varint v = Wire.encode (fun b -> Wire.w_varint b v)

(* The canonical reading of a varint, as a reference: the library has no
   varint reader (Spines compares encoded bytes instead). It rejects
   padded encodings and ones longer than 9 bytes, so "every accepted
   varint re-encodes to itself" says each int has exactly one encoding,
   the property that byte comparison rests on. Returns the value and the
   bytes used. *)
let read_varint s =
  let rec go u shift pos =
    if shift = 7 * 9 || pos >= String.length s then None
    else
      let byte = Char.code s.[pos] in
      let u = u lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 <> 0 then go u (shift + 7) (pos + 1)
      else if byte = 0 && shift > 0 then None
      else Some ((u lsr 1) lxor -(u land 1), pos + 1)
  in
  go 0 0 0

let test_varint_known_answers () =
  check_str "0" "\x00" (varint 0);
  check_str "-1" "\x01" (varint (-1));
  check_str "1" "\x02" (varint 1);
  check_str "63" "\x7e" (varint 63);
  check_str "-64" "\x7f" (varint (-64));
  check_str "64" "\x80\x01" (varint 64);
  check_int "max_int takes 9 bytes" 9 (String.length (varint max_int));
  check_int "min_int takes 9 bytes" 9 (String.length (varint min_int));
  check "padded zero rejected" true (read_varint "\x80\x00" = None);
  check "padded one rejected" true (read_varint "\x82\x00" = None);
  check "10-byte encoding rejected" true
    (read_varint (String.make 9 '\x80' ^ "\x01") = None);
  check "9th byte may not continue" true (read_varint (String.make 9 '\xff') = None);
  check "truncated" true (read_varint "\x80" = None);
  check "empty" true (read_varint "" = None)

let varint_edges =
  List.concat_map
    (fun k ->
      let p = 1 lsl (7 * k) in
      [ p; p - 1; -p; -p - 1; (p / 2) - 1; -(p / 2) ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  @ [ max_int; min_int; 0; -1; 1 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"w_varint/r_varint round-trips any int"
    QCheck.(oneof [ int; small_signed_int; oneofl varint_edges ])
    (fun v ->
      let s = varint v in
      String.length s = Wire.varint_size v
      && String.length s <= 9
      && read_varint s = Some (v, String.length s))

(* Bytes biased toward the continuation and zero edges, so that padded,
   over-long and truncated inputs all come up. *)
let varint_garbage =
  QCheck.(
    string_gen_of_size (Gen.int_range 0 12)
      (Gen.oneof
         [ Gen.char; Gen.oneofl [ '\x00'; '\x01'; '\x7f'; '\x80'; '\x81'; '\xff' ] ]))

let prop_varint_canonical =
  QCheck.Test.make ~count:2000 ~name:"every accepted varint re-encodes to itself"
    varint_garbage
    (fun s ->
      match read_varint s with
      | None -> true
      | Some (v, used) -> String.equal (varint v) (String.sub s 0 used))

let prop_composite_roundtrip =
  QCheck.Test.make ~count:300 ~name:"composite record round-trips"
    QCheck.(triple small_string (list small_int) bool)
    (fun (s, l, flag) ->
      let a = Array.of_list l in
      let bytes =
        Wire.encode (fun b ->
            Wire.w_str b s;
            Wire.w_int_array b a;
            Wire.w_bool b flag;
            Wire.w_opt b Wire.w_int (if flag then Some (List.length l) else None))
      in
      let r = Wire.reader bytes in
      let s' = Wire.r_str r in
      let a' = Wire.r_int_array r in
      let flag' = Wire.r_bool r in
      let o' = Wire.r_opt Wire.r_int r in
      Wire.at_end r && s' = s && a' = a && flag' = flag
      && o' = (if flag then Some (List.length l) else None))

(* --- byte stability across deployments ---------------------------------- *)

(* Two fully independent deployments (separate engines, keystores,
   replicas) driven by the same seed and workload must produce
   byte-identical canonical bodies for every signed message, in the same
   order: signatures made in one deployment verify in a rebuilt one. *)

let canonical_body = function
  | Prime.Msg.Update_msg u -> Some (Prime.Msg.Update.encode u)
  | Prime.Msg.Po_request { origin; po_seq; update; _ } ->
      Some (Prime.Msg.encode_po_request ~origin ~po_seq update)
  | Prime.Msg.Po_ack { acker; ack_origin; ack_po_seq; ack_digest; _ } ->
      Some
        (Prime.Msg.encode_po_ack ~acker ~origin:ack_origin ~po_seq:ack_po_seq
           ~digest:ack_digest)
  | Prime.Msg.Po_summary s -> Some (Prime.Msg.encode_summary s)
  | Prime.Msg.Pre_prepare { pp_view; pp_seq; pp_matrix; _ } ->
      Some (Prime.Msg.encode_pre_prepare ~view:pp_view ~pp_seq pp_matrix)
  | Prime.Msg.Prepare { prep_rep; prep_view; prep_seq; prep_digest; _ } ->
      Some
        (Prime.Msg.encode_prepare ~rep:prep_rep ~view:prep_view ~pp_seq:prep_seq
           ~digest:prep_digest)
  | Prime.Msg.Commit { com_rep; com_view; com_seq; com_digest; _ } ->
      Some
        (Prime.Msg.encode_commit ~rep:com_rep ~view:com_view ~pp_seq:com_seq
           ~digest:com_digest)
  | Prime.Msg.Suspect_leader { sus_rep; sus_view; _ } ->
      Some (Prime.Msg.encode_suspect ~rep:sus_rep ~view:sus_view)
  | Prime.Msg.Vc_report { vc_rep; vc_view; vc_max_ordered; vc_prepared; _ } ->
      Some
        (Prime.Msg.encode_vc_report ~rep:vc_rep ~view:vc_view ~max_ordered:vc_max_ordered
           ~prepared:vc_prepared)
  | Prime.Msg.Origin_reset { or_rep; or_new_start; _ } ->
      Some (Prime.Msg.encode_origin_reset ~rep:or_rep ~new_start:or_new_start)
  | Prime.Msg.Client_reply { crep_rep; crep_client; crep_client_seq; crep_exec_seq; _ } ->
      Some
        (Prime.Msg.encode_client_reply ~rep:crep_rep ~client:crep_client
           ~client_seq:crep_client_seq ~exec_seq:crep_exec_seq)
  | Prime.Msg.Catchup_reply
      { cr_rep; cr_entries; cr_upto; cr_behind_log; cr_next_exec_pp; cr_cursor; _ } ->
      Some
        (Prime.Msg.encode_catchup_reply ~rep:cr_rep
           (Prime.Msg.encode_catchup_content ~upto:cr_upto ~behind_log:cr_behind_log
              ~next_exec_pp:cr_next_exec_pp ~cursor:cr_cursor ~entries:cr_entries))
  | Prime.Msg.Recon_request _ | Prime.Msg.Recon_reply _ | Prime.Msg.Order_cert _
  | Prime.Msg.Catchup_request _ ->
      None

let run_deployment ~seed =
  let engine = Sim.Engine.create ~seed () in
  (* Seed-derived delivery jitter: the schedule (and hence retransmits,
     summaries, and message interleaving) depends on the seed, which is
     what gives the divergence control below its teeth. *)
  let rng = Sim.Rng.create seed in
  let jitter () = 0.001 +. Sim.Rng.float rng 0.002 in
  let trace = Sim.Trace.create () in
  let keystore = Crypto.Signature.create_keystore () in
  let config = Prime.Config.create ~f:1 ~k:0 () in
  let n = config.Prime.Config.n in
  let replicas = Array.make n (Obj.magic 0) in
  let clients : (string, Prime.Client.t) Hashtbl.t = Hashtbl.create 8 in
  let log = Buffer.create 65536 in
  let record msg =
    match canonical_body msg with
    | Some body ->
        Wire.w_str log body (* length-prefixed, so the log is unambiguous *)
    | None -> ()
  in
  let deliver ~dst msg =
    record msg;
    ignore
      (Sim.Engine.schedule engine ~delay:(jitter ()) (fun () ->
           Prime.Replica.handle_message replicas.(dst) msg))
  in
  let transport_for id =
    {
      Prime.Replica.send = (fun ~dst msg -> deliver ~dst msg);
      broadcast =
        (fun msg ->
          for dst = 0 to n - 1 do
            if dst <> id then deliver ~dst msg
          done);
      reply_to_client =
        (fun ~client msg ->
          record msg;
          ignore
            (Sim.Engine.schedule engine ~delay:(jitter ()) (fun () ->
                 match Hashtbl.find_opt clients client with
                 | Some session -> Prime.Client.handle_reply session msg
                 | None -> ())));
    }
  in
  for id = 0 to n - 1 do
    let keypair = Crypto.Signature.generate keystore (Prime.Msg.replica_identity id) in
    replicas.(id) <-
      Prime.Replica.create ~engine ~trace ~keystore ~keypair ~transport:(transport_for id)
        ~id config
  done;
  Array.iter Prime.Replica.start replicas;
  let keypair = Crypto.Signature.generate keystore "hmi" in
  let send_to_replica ~dst msg =
    ignore
      (Sim.Engine.schedule engine ~delay:(jitter ()) (fun () ->
           Prime.Replica.handle_message replicas.(dst) msg))
  in
  let client =
    Prime.Client.create ~engine ~keystore ~keypair ~send_to_replica config
  in
  Hashtbl.replace clients "hmi" client;
  for i = 0 to 19 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.1 +. (0.05 *. float_of_int i))
         (fun () ->
           ignore (Prime.Client.submit client ~op:(Printf.sprintf "cmd-%d" i))))
  done;
  Sim.Engine.run ~until:5.0 engine;
  Buffer.contents log

let test_bodies_stable_across_deployments () =
  let a = run_deployment ~seed:424242L in
  let b = run_deployment ~seed:424242L in
  check "log nonempty" true (String.length a > 1000);
  check_int "same length" (String.length a) (String.length b);
  check "byte-identical signed bodies" true (String.equal a b)

let test_bodies_diverge_across_seeds () =
  (* Sanity check that the stability test has teeth: a different seed
     perturbs timing and therefore the message stream. *)
  let a = run_deployment ~seed:424242L in
  let b = run_deployment ~seed:424243L in
  check "different schedule, different stream" true (not (String.equal a b))

let suite =
  [
    ("scalar round-trips", `Quick, test_scalar_roundtrips);
    ("digest and option round-trips", `Quick, test_digest_and_opt);
    ("malformed input rejected", `Quick, test_malformed_rejected);
    ("signed bodies byte-stable across deployments", `Quick, test_bodies_stable_across_deployments);
    ("streams diverge across seeds", `Quick, test_bodies_diverge_across_seeds);
    ("varint known answers", `Quick, test_varint_known_answers);
    QCheck_alcotest.to_alcotest prop_int_roundtrip;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_varint_canonical;
    QCheck_alcotest.to_alcotest prop_composite_roundtrip;
  ]

let () = Alcotest.run "wire" [ ("wire", suite) ]
