(* Tests for the SCADA application layer: operation encoding, replicated
   state, and the historian. Master/proxy/HMI behaviour is exercised end
   to end in test_core. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let mini =
  {
    Plc.Power.scenario_name = "mini";
    plcs = [ { Plc.Power.plc_name = "M"; breaker_names = [ "A"; "B" ]; physical = false } ];
    feeds = [ { Plc.Power.load_name = "L"; path = [ "A"; "B" ] } ];
  }

(* --- Shard map ---------------------------------------------------------- *)

let test_shard_round_robin_partition () =
  let scenario = Plc.Power.synthetic ~devices:100 () in
  let map = Scada.Shard.create ~shards:4 scenario in
  check_int "four shards" 4 (Scada.Shard.shards map);
  (* Every site and breaker lands in exactly one shard, and the union of
     the sub-scenarios is the whole scenario. *)
  let total =
    List.init 4 (fun s -> Plc.Power.total_breakers (Scada.Shard.sub_scenario map s))
    |> List.fold_left ( + ) 0
  in
  check_int "breakers partitioned exactly" (Plc.Power.total_breakers scenario) total;
  List.iteri
    (fun i (p : Plc.Power.plc_spec) ->
      check "site shard is round-robin" true
        (Scada.Shard.shard_of_site map p.Plc.Power.plc_name = Some (i mod 4));
      List.iter
        (fun b ->
          check "breaker follows its site" true
            (Scada.Shard.shard_of_breaker map b = Some (i mod 4)))
        p.Plc.Power.breaker_names)
    scenario.Plc.Power.plcs;
  check "unknown breaker unmapped" true (Scada.Shard.shard_of_breaker map "nope" = None);
  (* Deterministic: two maps from the same inputs agree slice by slice. *)
  let map2 = Scada.Shard.create ~shards:4 scenario in
  for s = 0 to 3 do
    check "same sub-scenario" true
      (Scada.Shard.sub_scenario map s = Scada.Shard.sub_scenario map2 s)
  done

let test_shard_feeds_follow_sites () =
  let map = Scada.Shard.create ~shards:3 Plc.Power.red_team in
  (* Every feed lands in the shard of its first path breaker, and no
     feed is duplicated or lost. *)
  let total_feeds =
    List.init 3 (fun s ->
        List.length (Scada.Shard.sub_scenario map s).Plc.Power.feeds)
    |> List.fold_left ( + ) 0
  in
  check_int "feeds partitioned exactly"
    (List.length Plc.Power.red_team.Plc.Power.feeds)
    total_feeds;
  List.iter
    (fun (f : Plc.Power.feed) ->
      match f.Plc.Power.path with
      | [] -> ()
      | first :: _ ->
          let s = Option.get (Scada.Shard.shard_of_breaker map first) in
          check "feed in its breaker's shard" true
            (List.exists
               (fun (g : Plc.Power.feed) -> g.Plc.Power.load_name = f.Plc.Power.load_name)
               (Scada.Shard.sub_scenario map s).Plc.Power.feeds))
    Plc.Power.red_team.Plc.Power.feeds;
  check "degenerate single shard is identity" true
    ((Scada.Shard.sub_scenario (Scada.Shard.create ~shards:1 mini) 0).Plc.Power.plcs
    = mini.Plc.Power.plcs)

(* --- Op ---------------------------------------------------------------- *)

let test_op_roundtrip () =
  let cases =
    [
      Scada.Op.Status { breaker = "B10-1"; closed = true };
      Scada.Op.Status { breaker = "DIST-01/B2"; closed = false };
      Scada.Op.Command { breaker = "B57"; close = false };
    ]
  in
  List.iter
    (fun op ->
      match Scada.Op.decode (Scada.Op.encode op) with
      | Some decoded -> check (Scada.Op.encode op) true (decoded = op)
      | None -> Alcotest.fail "decode failed")
    cases

let test_op_rejects_garbage () =
  check "empty" true (Scada.Op.decode "" = None);
  check "unknown kind" true (Scada.Op.decode "weird:B1:1" = None);
  check "bad flag" true (Scada.Op.decode "status:B1:2" = None);
  check "missing fields" true (Scada.Op.decode "cmd:B1" = None);
  List.iter
    (fun s -> check ("non-canonical " ^ s) true (Scada.Op.decode s = None))
    [
      "batch:o:05:a=1"; "batch:o:0x5:a=1"; "batch:o:+5:a=1"; "batch:o:1_0:a=1";
      "batch:o:-0:a=1"; "batch:o:5"; "telem:o:1:p=0b11"; "telem:o:1:p=+3"; "telem:o:1";
    ]

let test_op_batch_roundtrip () =
  let cases =
    [
      Scada.Op.Batch { origin = "proxy-SUB-001"; cursor = 1; reports = [] };
      Scada.Op.Batch { origin = "proxy-M"; cursor = 42; reports = [ ("A", true) ] };
      Scada.Op.Batch
        {
          origin = "proxy-DIST-01";
          cursor = 7;
          reports = [ ("DIST-01/B1", false); ("DIST-01/B2", true); ("DIST-01/B3", false) ];
        };
    ]
  in
  List.iter
    (fun op ->
      match Scada.Op.decode (Scada.Op.encode op) with
      | Some decoded -> check (Scada.Op.encode op) true (decoded = op)
      | None -> Alcotest.fail "batch decode failed")
    cases;
  check_int "updates counts reports" 3
    (Scada.Op.updates
       (Scada.Op.Batch
          { origin = "o"; cursor = 1; reports = [ ("a", true); ("b", false); ("c", true) ] }));
  check "negative cursor rejected" true (Scada.Op.decode "batch:o:-1:a=1" = None);
  check "bad report flag rejected" true (Scada.Op.decode "batch:o:1:a=2" = None);
  check "bad report shape rejected" true (Scada.Op.decode "batch:o:1:a" = None)

let prop_op_roundtrip =
  QCheck.Test.make ~count:200 ~name:"op encode/decode roundtrips"
    QCheck.(pair (pair bool bool) (string_of_size Gen.(int_range 1 20)))
    (fun ((is_status, flag), name) ->
      QCheck.assume (not (String.contains name ':'));
      let op =
        if is_status then Scada.Op.Status { breaker = name; closed = flag }
        else Scada.Op.Command { breaker = name; close = flag }
      in
      Scada.Op.decode (Scada.Op.encode op) = Some op)

(* Encodings are what clients sign, so [decode] must accept exactly one
   spelling per op: every accepted string re-encodes to itself. Inputs
   are honest encodings put through a few byte edits drawn from the
   characters that matter to the grammar (digits, signs, radix and
   separator marks, field delimiters). *)
let prop_op_decode_canonical =
  let open QCheck.Gen in
  let name = string_size ~gen:(oneofl [ 'a'; 'B'; '1'; '/'; '.'; '-' ]) (int_range 1 6) in
  let op =
    oneof
      [
        map2 (fun breaker closed -> Scada.Op.Status { breaker; closed }) name bool;
        map2 (fun breaker close -> Scada.Op.Command { breaker; close }) name bool;
        map3
          (fun origin cursor reports -> Scada.Op.Batch { origin; cursor; reports })
          name (int_range 0 120) (list_size (int_range 0 3) (pair name bool));
        map3
          (fun origin cursor readings -> Scada.Op.Telemetry { origin; cursor; readings })
          name (int_range 0 120)
          (list_size (int_range 0 3) (pair name (int_range (-300) 300)));
      ]
  in
  let edit s (kind, pos, c) =
    let n = String.length s in
    match kind with
    | 0 -> let i = pos mod (n + 1) in String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | 1 when n > 0 -> let i = pos mod n in String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 when n > 0 -> String.mapi (fun j x -> if j = pos mod n then c else x) s
    | _ -> String.sub s 0 (pos mod (n + 1))
  in
  let edits =
    list_size (int_range 0 3)
      (triple (int_range 0 3) nat (oneofl [ '0'; '1'; '5'; '+'; '-'; '_'; 'x'; 'b'; 'o'; ':'; ','; '=' ]))
  in
  let input = map2 (fun op es -> List.fold_left edit (Scada.Op.encode op) es) op edits in
  QCheck.Test.make ~count:2000 ~name:"op decode accepts only canonical encodings"
    (QCheck.make ~print:(Printf.sprintf "%S") input)
    (fun s ->
      match Scada.Op.decode s with
      | None -> true
      | Some op -> String.equal (Scada.Op.encode op) s)

(* --- State -------------------------------------------------------------- *)

let test_state_apply_and_energized () =
  let s = Scada.State.create mini in
  check "A starts closed" true (Scada.State.reported_closed s "A");
  let changed =
    Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "A"; closed = false })
  in
  check "change detected" true changed;
  check "A now open" false (Scada.State.reported_closed s "A");
  let unchanged =
    Scada.State.apply s ~exec_seq:2 (Scada.Op.Status { breaker = "A"; closed = false })
  in
  check "idempotent status" false unchanged;
  Alcotest.(check (list (pair string bool))) "load dark" [ ("L", false) ] (Scada.State.energized s)

let test_state_unknown_breaker_is_noop () =
  let s = Scada.State.create mini in
  let changed =
    Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "GHOST"; closed = false })
  in
  check "no change" false changed;
  check_int "op still counted" 1 (Scada.State.ops_applied s)

(* Hand-built state blob (format version 3): breaker entries (name,
   flags, last-change exec), cursors (origin, cursor) and reported
   telemetry (name, value, exec), each written in the order given. *)
let state_blob ?(cursors = []) ?(telemetry = []) breakers =
  Wire.encode (fun b ->
      Wire.w_u8 b 3;
      Wire.w_u32 b (List.length breakers);
      List.iter
        (fun (name, flags, exec) ->
          Wire.w_str b name;
          Wire.w_u8 b flags;
          Wire.w_int b exec)
        breakers;
      Wire.w_u32 b (List.length cursors);
      List.iter
        (fun (origin, c) ->
          Wire.w_str b origin;
          Wire.w_int b c)
        cursors;
      Wire.w_u32 b (List.length telemetry);
      List.iter
        (fun (name, v, exec) ->
          Wire.w_str b name;
          Wire.w_int b v;
          Wire.w_int b exec)
        telemetry)

let test_state_serialize_load_digest () =
  let s1 = Scada.State.create mini in
  ignore (Scada.State.apply s1 ~exec_seq:5 (Scada.Op.Status { breaker = "A"; closed = false }));
  ignore (Scada.State.apply s1 ~exec_seq:6 (Scada.Op.Command { breaker = "B"; close = false }));
  let blob = Scada.State.serialize s1 in
  let s2 = Scada.State.create mini in
  check "digests differ before load" true (Scada.State.digest s1 <> Scada.State.digest s2);
  (match Scada.State.load s2 blob with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_str "digests equal after load" (Scada.State.digest s1) (Scada.State.digest s2);
  check "loaded value" false (Scada.State.reported_closed s2 "A")

let test_state_load_rejects_malformed () =
  let s = Scada.State.create mini in
  ignore (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "A"; closed = false }));
  let before = Scada.State.digest s in
  check "garbage rejected" true (Scada.State.load s "not-a-state" |> Result.is_error);
  check "old text format rejected" true (Scada.State.load s "A=1/1/0;junk" |> Result.is_error);
  let blob = Scada.State.serialize s in
  check "truncated blob rejected" true
    (Scada.State.load s (String.sub blob 0 (String.length blob - 3)) |> Result.is_error);
  let unknown_breaker = state_blob [ ("A", 3, 0); ("GHOST", 3, 0) ] in
  check "unknown breaker rejected" true (Scada.State.load s unknown_breaker |> Result.is_error);
  let zero_cursor = state_blob ~cursors:[ ("proxy-M", 0) ] [ ("A", 3, 0); ("B", 3, 0) ] in
  check "cursor below 1 rejected" true (Scada.State.load s zero_cursor |> Result.is_error);
  (* A rejected load leaves the live state untouched. *)
  check_str "state untouched by rejected loads" before (Scada.State.digest s)

let test_state_batch_cursor_gate () =
  let s = Scada.State.create mini in
  let batch cursor reports = Scada.Op.Batch { origin = "proxy-M"; cursor; reports } in
  let changes =
    Scada.State.apply_changes s ~exec_seq:1 (batch 1 [ ("A", false); ("B", false) ])
  in
  check "both applied in order" true (changes = [ ("A", false); ("B", false) ]);
  check_int "cursor advanced" 1 (Scada.State.batch_cursor s "proxy-M");
  (* Replay of an old aggregate — even with different contents — must be
     a deterministic no-op. *)
  let replay = Scada.State.apply_changes s ~exec_seq:2 (batch 1 [ ("A", true) ]) in
  check "replayed batch ignored" true (replay = []);
  check "A still open" false (Scada.State.reported_closed s "A");
  (* A later cursor applies; unchanged reports produce no change rows. *)
  let next = Scada.State.apply_changes s ~exec_seq:3 (batch 2 [ ("A", false); ("B", true) ]) in
  check "only the real change reported" true (next = [ ("B", true) ]);
  check_int "cursor tracks" 2 (Scada.State.batch_cursor s "proxy-M")

let test_state_cursors_ride_serialization () =
  let s1 = Scada.State.create mini in
  let s2 = Scada.State.create mini in
  (* The cursor table is replicated state: it changes the canonical blob
     and the digest. *)
  let blob_free = Scada.State.serialize s1 in
  let digest_free = Scada.State.digest s1 in
  ignore
    (Scada.State.apply_changes s1 ~exec_seq:5
       (Scada.Op.Batch { origin = "proxy-M"; cursor = 9; reports = [ ("A", false) ] }));
  check "cursor changes the canonical blob" false
    (String.equal blob_free (Scada.State.serialize s1));
  check "cursor changes the digest" false (String.equal digest_free (Scada.State.digest s1));
  (* Load installs the cursor table, so a restored replica rejects the
     same replay the originals did. *)
  (match Scada.State.load s2 (Scada.State.serialize s1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  check_str "digest matches after load" (Scada.State.digest s1) (Scada.State.digest s2);
  check_int "cursor restored" 9 (Scada.State.batch_cursor s2 "proxy-M");
  let replay =
    Scada.State.apply_changes s2 ~exec_seq:6
      (Scada.Op.Batch { origin = "proxy-M"; cursor = 9; reports = [ ("A", true) ] })
  in
  check "restored replica rejects replay" true (replay = []);
  (* Trailing bytes are rejected like any other malformed blob. *)
  let s3 = Scada.State.create mini in
  check "trailing bytes rejected" true
    (Scada.State.load s3 (Scada.State.serialize s1 ^ "junk") |> Result.is_error)

(* Origins outside the scenario topology (an adversarial client can use
   any origin string) still ride the digest and the serialization
   deterministically through the cursor tree's spill leaf. *)
let test_state_unknown_origin_batch_rides_digest () =
  let s1 = Scada.State.create mini in
  let d0 = Scada.State.digest s1 in
  ignore
    (Scada.State.apply_changes s1 ~exec_seq:3
       (Scada.Op.Batch { origin = "rogue-origin"; cursor = 4; reports = [] }));
  check "unknown origin changes the digest" false (String.equal d0 (Scada.State.digest s1));
  check_str "incremental matches recompute" (Scada.State.recompute_digest s1)
    (Scada.State.digest s1);
  let s2 = Scada.State.create mini in
  (match Scada.State.load s2 (Scada.State.serialize s1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  check_str "digest matches after load" (Scada.State.digest s1) (Scada.State.digest s2);
  check_int "unknown-origin cursor restored" 4 (Scada.State.batch_cursor s2 "rogue-origin")

(* Regression for the old text loader's merge semantics: a blob whose
   breaker entries hold defaults, and that mentions fewer cursors than
   the live state, must fully replace it — nothing survives with stale
   values. *)
let test_state_load_full_replacement () =
  let s = Scada.State.create mini in
  ignore (Scada.State.apply s ~exec_seq:2 (Scada.Op.Status { breaker = "B"; closed = false }));
  ignore
    (Scada.State.apply_changes s ~exec_seq:3
       (Scada.Op.Batch { origin = "proxy-M"; cursor = 5; reports = [] }));
  (* A open at exec 7 (reported open, commanded closed), B at its
     defaults, no cursors, no reported telemetry. *)
  let small = state_blob [ ("A", 2, 7); ("B", 3, 0) ] in
  (match Scada.State.load s small with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load failed: %s" e);
  check "A installed open" false (Scada.State.reported_closed s "A");
  check "B reverted to default" true (Scada.State.reported_closed s "B");
  check_int "cursor table replaced" 0 (Scada.State.batch_cursor s "proxy-M");
  (* Digests converge with a reference state holding only the A change. *)
  let reference = Scada.State.create mini in
  ignore
    (Scada.State.apply reference ~exec_seq:7 (Scada.Op.Status { breaker = "A"; closed = false }));
  check_str "digest converges with reference" (Scada.State.digest reference)
    (Scada.State.digest s);
  check_str "incremental matches recompute" (Scada.State.recompute_digest s)
    (Scada.State.digest s)

let test_state_serialize_memoized () =
  let s = Scada.State.create mini in
  let b1 = Scada.State.serialize s in
  let b2 = Scada.State.serialize s in
  check "memoized blob is the same string" true (b1 == b2);
  ignore (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "A"; closed = false }));
  let b3 = Scada.State.serialize s in
  check "mutation invalidates the memo" false (String.equal b1 b3);
  let _, _, serializations = Scada.State.stats s in
  check_int "two encodes for three calls" 2 serializations

let test_state_reset () =
  let s = Scada.State.create mini in
  ignore (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "A"; closed = false }));
  Scada.State.reset s;
  check "back to default" true (Scada.State.reported_closed s "A");
  check_int "ops cleared" 0 (Scada.State.ops_applied s)

(* [serialize] writes one entry per breaker, so a blob that lists fewer
   has no canonical spelling and must be rejected: the 13-byte blob with
   no breakers, cursors or telemetry must not load as an all-default
   state that re-serializes to a different (2-breaker) blob. *)
let test_state_rejects_missing_breakers () =
  let s = Scada.State.create mini in
  ignore (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "A"; closed = false }));
  let before = Scada.State.digest s in
  let empty = state_blob [] in
  check_int "13-byte blob" 13 (String.length empty);
  check "load rejects it" true (Scada.State.load s empty |> Result.is_error);
  check "root_of_blob rejects it" true (Scada.State.root_of_blob s empty |> Result.is_error);
  check "one of two breakers rejected" true
    (Scada.State.load s (state_blob [ ("A", 3, 0) ]) |> Result.is_error);
  check_str "state untouched" before (Scada.State.digest s)

(* Decoding a state blob is total on arbitrary bytes; an accepted blob
   loads, re-serializes to exactly its own bytes, and [root_of_blob]
   predicts the digest the load leaves. Inputs mix raw bytes, real
   serializations and hand-built blobs over random subsets of the
   breakers, cursors and telemetry points, each possibly extended,
   truncated or bit-flipped. *)
let prop_state_blob_canonical =
  let points = Power.Model.point_names (Power.Model.of_scenario mini) in
  let open QCheck.Gen in
  let subset xs =
    map
      (fun keep -> List.filteri (fun i _ -> List.nth keep i) xs)
      (list_repeat (List.length xs) bool)
  in
  let built =
    map3
      (fun breakers cursors telemetry -> state_blob ~cursors ~telemetry breakers)
      (subset [ "A"; "B" ] >>= fun names ->
       flatten_l (List.map (fun n -> map2 (fun f e -> (n, f, e)) (int_bound 3) small_nat) names))
      (subset [ "ghost"; "proxy-M"; "proxy-N" ] >>= fun origins ->
       flatten_l (List.map (fun o -> map (fun c -> (o, c)) (int_range 1 50)) origins))
      (subset points >>= fun names ->
       flatten_l (List.map (fun n -> map2 (fun v e -> (n, v, e)) int (int_range 1 50)) names))
  in
  let serialized =
    map
      (fun ops ->
        let s = Scada.State.create mini in
        List.iteri
          (fun i (which, closed) ->
            let breaker = if which then "A" else "B" in
            let reports = [ (breaker, closed) ] in
            ignore
              (Scada.State.apply_changes s ~exec_seq:(i + 1)
                 (Scada.Op.Batch { origin = "proxy-M"; cursor = i + 1; reports })))
          ops;
        Scada.State.serialize s)
      (list_size (int_bound 6) (pair bool bool))
  in
  let mutate blob =
    let n = String.length blob in
    oneof
      [
        return blob;
        map (fun junk -> blob ^ junk) (string_size (int_range 1 8));
        map (fun k -> String.sub blob 0 k) (int_bound (n - 1));
        map2
          (fun i bit ->
            let b = Bytes.of_string blob in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            Bytes.to_string b)
          (int_bound (n - 1)) (int_bound 7);
      ]
  in
  QCheck.Test.make ~count:2000 ~name:"state blob decode is total and canonical"
    (QCheck.make ~print:String.escaped
       (oneof [ string_size (int_bound 80); built >>= mutate; serialized >>= mutate ]))
    (fun blob ->
      let s = Scada.State.create mini in
      match (Scada.State.root_of_blob s blob, Scada.State.load s blob) with
      | Error _, Error _ -> true
      | Ok root, Ok () ->
          String.equal (Scada.State.serialize s) blob
          && String.equal root (Scada.State.digest_root s)
      | Ok _, Error _ | Error _, Ok () -> false)

(* Differential property for the incremental digest: any interleaving of
   status/command/batch applies, snapshot loads, and resets leaves the
   digest equal to a from-scratch recompute at every step. *)
let prop_state_incremental_matches_recompute =
  QCheck.Test.make ~count:200 ~name:"incremental digest equals from-scratch recompute"
    QCheck.(list_of_size Gen.(int_range 0 40) (pair small_nat bool))
    (fun ops ->
      let s = Scada.State.create mini in
      let saved = ref (Scada.State.serialize s) in
      let ok = ref true in
      List.iteri
        (fun i (sel, flag) ->
          let exec_seq = i + 1 in
          (match sel mod 8 with
          | 0 | 1 ->
              ignore
                (Scada.State.apply s ~exec_seq
                   (Scada.Op.Status { breaker = (if sel mod 2 = 0 then "A" else "B"); closed = flag }))
          | 2 ->
              ignore
                (Scada.State.apply s ~exec_seq
                   (Scada.Op.Command { breaker = (if flag then "A" else "B"); close = flag }))
          | 3 | 4 ->
              ignore
                (Scada.State.apply_changes s ~exec_seq
                   (Scada.Op.Batch
                      {
                        origin = (if sel mod 8 = 3 then "proxy-M" else "ghost-origin");
                        cursor = exec_seq;
                        reports = [ ("A", flag); ("B", not flag) ];
                      }))
          | 5 -> saved := Scada.State.serialize s
          | 6 -> (
              match Scada.State.load s !saved with
              | Ok () -> ()
              | Error e -> failwith ("snapshot load failed: " ^ e))
          | _ -> Scada.State.reset s);
          if not (String.equal (Scada.State.digest s) (Scada.State.recompute_digest s)) then
            ok := false)
        ops;
      !ok && String.equal (Scada.State.digest s) (Scada.State.recompute_digest s))

(* The same differential when the digest is read only now and then, as
   the replicas read it: each read flushes every leaf marked since the
   previous one, across a scenario large enough for promoted odd nodes
   in all three trees. *)
let prop_state_sparse_reads_match_recompute =
  let scenario = Plc.Power.synthetic ~devices:24 () in
  let breakers = Array.of_list (Plc.Power.all_breakers scenario) in
  let points = Array.of_list (Power.Model.point_names (Power.Model.of_scenario scenario)) in
  let origins =
    Array.of_list (List.map (fun p -> "proxy-" ^ p.Plc.Power.plc_name) scenario.Plc.Power.plcs)
  in
  let pick a k = a.(k mod Array.length a) in
  QCheck.Test.make ~count:200 ~name:"digest read at random steps equals recompute"
    QCheck.(list_of_size Gen.(int_range 0 60) (quad (int_bound 9) small_nat bool (int_bound 3)))
    (fun ops ->
      let s = Scada.State.create scenario in
      let saved = ref (Scada.State.serialize s) in
      let ok = ref true in
      List.iteri
        (fun i (sel, k, flag, read) ->
          let exec_seq = i + 1 in
          let apply op = ignore (Scada.State.apply_changes s ~exec_seq op) in
          (match sel with
          | 0 | 1 -> apply (Scada.Op.Status { breaker = pick breakers k; closed = flag })
          | 2 -> apply (Scada.Op.Command { breaker = pick breakers k; close = flag })
          | 3 ->
              apply
                (Scada.Op.Batch
                   {
                     origin = pick origins k;
                     cursor = exec_seq;
                     reports =
                       List.init 4 (fun j -> (pick breakers (k + (j * 7)), flag <> (j mod 2 = 0)));
                   })
          | 4 ->
              apply
                (Scada.Op.Batch
                   { origin = Printf.sprintf "ghost-%d" (k mod 3); cursor = exec_seq;
                     reports = [ (pick breakers k, flag) ] })
          | 5 | 6 ->
              apply
                (Scada.Op.Telemetry
                   {
                     origin = pick origins k;
                     cursor = exec_seq;
                     readings =
                       [
                         (pick points k, k - 50);
                         (pick points (k + 3), exec_seq);
                         ("no-such-point", 1);
                       ];
                   })
          | 7 -> saved := Scada.State.serialize s
          | 8 -> (
              match Scada.State.load s !saved with
              | Ok () -> ()
              | Error e -> failwith ("snapshot load failed: " ^ e))
          | _ -> Scada.State.reset s);
          if read = 0 && not (String.equal (Scada.State.digest s) (Scada.State.recompute_digest s))
          then ok := false)
        ops;
      !ok && String.equal (Scada.State.digest s) (Scada.State.recompute_digest s))

let prop_state_digest_deterministic =
  QCheck.Test.make ~count:100 ~name:"state digest is a pure function of applied ops"
    QCheck.(list_of_size Gen.(int_range 0 20) (pair bool bool))
    (fun ops ->
      let build () =
        let s = Scada.State.create mini in
        List.iteri
          (fun i (which, flag) ->
            let breaker = if which then "A" else "B" in
            ignore (Scada.State.apply s ~exec_seq:(i + 1) (Scada.Op.Status { breaker; closed = flag })))
          ops;
        Scada.State.digest s
      in
      String.equal (build ()) (build ()))

(* --- Historian ---------------------------------------------------------------- *)

let test_historian_record_and_query () =
  let h = Scada.Historian.create () in
  Scada.Historian.record h ~time:1.0 ~source:"master" ~kind:"status" ~detail:"B57 open";
  Scada.Historian.record h ~time:2.0 ~source:"master" ~kind:"command" ~detail:"close B57";
  Scada.Historian.record h ~time:3.0 ~source:"master" ~kind:"status" ~detail:"B57 closed";
  check_int "three events" 3 (Scada.Historian.length h);
  check_int "since 1.5" 2 (List.length (Scada.Historian.since h 1.5));
  check_int "by kind" 2 (List.length (Scada.Historian.by_kind h "status"))

let test_historian_wipe_is_permanent () =
  (* The Section III-A asymmetry: archived history cannot be rebuilt from
     field devices. *)
  let h = Scada.Historian.create () in
  for i = 1 to 10 do
    Scada.Historian.record h ~time:(float_of_int i) ~source:"m" ~kind:"sample" ~detail:"x"
  done;
  Scada.Historian.wipe h;
  check_int "empty" 0 (Scada.Historian.length h);
  check_int "loss accounted" 10 (Scada.Historian.lost_events h)

let test_historian_matches_list_semantics () =
  (* Queries must agree with a plain list of the recorded events, on a
     monotone history with runs of equal times; a time below the last
     recorded one is refused and leaves the archive as it was. *)
  let input =
    [
      (1.0, "m", "status", "a");
      (2.0, "p", "status", "b");
      (4.0, "m", "command", "c");
      (4.0, "m", "status", "d"); (* duplicate time *)
      (4.0, "p", "alarm", "e"); (* duplicate time *)
      (9.0, "p", "alarm", "f");
    ]
  in
  let h = Scada.Historian.create () in
  List.iter (fun (time, source, kind, detail) -> Scada.Historian.record h ~time ~source ~kind ~detail) input;
  let reference = List.map (fun (time, source, kind, detail) -> { Scada.Historian.time; source; kind; detail }) input in
  Alcotest.(check int) "recording order" (List.length reference) (Scada.Historian.length h);
  check "events in recording order" true (Scada.Historian.events h = reference);
  List.iter
    (fun from ->
      check (Printf.sprintf "since %g filters like a scan" from) true
        (Scada.Historian.since h from
        = List.filter (fun e -> e.Scada.Historian.time >= from) reference))
    [ 0.0; 1.0; 3.0; 4.0; 4.5; 9.0; 10.0 ];
  check "by_kind preserves order" true
    (Scada.Historian.by_kind h "status"
    = List.filter (fun e -> e.Scada.Historian.kind = "status") reference);
  Alcotest.check_raises "time below the last is refused"
    (Invalid_argument "Historian.record: time below the last recorded") (fun () ->
      Scada.Historian.record h ~time:3.0 ~source:"m" ~kind:"status" ~detail:"late");
  check "refused event not archived" true (Scada.Historian.events h = reference);
  let hm = Scada.Historian.create () in
  for i = 1 to 100 do
    Scada.Historian.record hm ~time:(float_of_int i) ~source:"m" ~kind:"s" ~detail:""
  done;
  check_int "since mid" 51 (List.length (Scada.Historian.since hm 50.0));
  check_int "since before start" 100 (List.length (Scada.Historian.since hm 0.0));
  check_int "since past end" 0 (List.length (Scada.Historian.since hm 101.0))

(* --- threshold gate ------------------------------------------------------- *)

let test_threshold_fires_once () =
  let g = Scada.Threshold.create ~needed:2 () in
  check "first vote below threshold" false (Scada.Threshold.vote g ~key:"k" ~voter:0);
  check "same voter does not stack" false (Scada.Threshold.vote g ~key:"k" ~voter:0);
  check "second voter completes" true (Scada.Threshold.vote g ~key:"k" ~voter:1);
  check "replay suppressed" false (Scada.Threshold.vote g ~key:"k" ~voter:2);
  check "decided" true (Scada.Threshold.decided g "k")

let test_threshold_retention_bounds_decided () =
  (* Regression: decided keys were retained forever. *)
  let g = Scada.Threshold.create ~retention:4 ~needed:1 () in
  for i = 1 to 10 do
    check "each key fires" true (Scada.Threshold.vote g ~key:(string_of_int i) ~voter:0)
  done;
  check_int "decided bounded by retention" 4 (Scada.Threshold.decided_count g);
  check_int "evictions counted" 6 (Scada.Threshold.evictions g);
  (* Replay suppression holds within the retention horizon... *)
  check "recent key still suppressed" false (Scada.Threshold.vote g ~key:"10" ~voter:3);
  check "recent key still decided" true (Scada.Threshold.decided g "10");
  (* ...while keys beyond it have been forgotten. *)
  check "ancient key forgotten" false (Scada.Threshold.decided g "1")

let test_threshold_prunes_stale_votes () =
  (* Regression: vote sets that never reach threshold (equivocation,
     partial delivery) were retained forever. *)
  let g = Scada.Threshold.create ~retention:4 ~needed:2 () in
  check "lone vote pends" false (Scada.Threshold.vote g ~key:"orphan" ~voter:0);
  check_int "one open vote set" 1 (Scada.Threshold.open_votes g);
  for i = 1 to 8 do
    let key = Printf.sprintf "done-%d" i in
    ignore (Scada.Threshold.vote g ~key ~voter:0);
    check "decision completes" true (Scada.Threshold.vote g ~key ~voter:1)
  done;
  check_int "stale vote set pruned" 0 (Scada.Threshold.open_votes g)

let suite =
  [
    ("op roundtrip", `Quick, test_op_roundtrip);
    ("op rejects garbage", `Quick, test_op_rejects_garbage);
    ("op batch roundtrip", `Quick, test_op_batch_roundtrip);
    ("shard round-robin partition", `Quick, test_shard_round_robin_partition);
    ("shard feeds follow sites", `Quick, test_shard_feeds_follow_sites);
    ("state batch cursor gate", `Quick, test_state_batch_cursor_gate);
    ("state cursors ride serialization", `Quick, test_state_cursors_ride_serialization);
    ("state apply and energized", `Quick, test_state_apply_and_energized);
    ("state unknown breaker noop", `Quick, test_state_unknown_breaker_is_noop);
    ("state serialize/load/digest", `Quick, test_state_serialize_load_digest);
    ("state load rejects malformed", `Quick, test_state_load_rejects_malformed);
    ("state load fully replaces", `Quick, test_state_load_full_replacement);
    ("state unknown-origin batch rides digest", `Quick, test_state_unknown_origin_batch_rides_digest);
    ("state serialize memoized", `Quick, test_state_serialize_memoized);
    ("state reset", `Quick, test_state_reset);
    ("state rejects missing breakers", `Quick, test_state_rejects_missing_breakers);
    ("threshold fires once", `Quick, test_threshold_fires_once);
    ("threshold retention bounds decided", `Quick, test_threshold_retention_bounds_decided);
    ("threshold prunes stale votes", `Quick, test_threshold_prunes_stale_votes);
    ("historian record and query", `Quick, test_historian_record_and_query);
    ("historian wipe permanent", `Quick, test_historian_wipe_is_permanent);
    ("historian matches list semantics", `Quick, test_historian_matches_list_semantics);
    QCheck_alcotest.to_alcotest prop_op_roundtrip;
    QCheck_alcotest.to_alcotest prop_op_decode_canonical;
    QCheck_alcotest.to_alcotest prop_state_digest_deterministic;
    QCheck_alcotest.to_alcotest prop_state_incremental_matches_recompute;
    QCheck_alcotest.to_alcotest prop_state_blob_canonical;
    QCheck_alcotest.to_alcotest prop_state_sparse_reads_match_recompute;
  ]

let () = Alcotest.run "scada" [ ("scada", suite) ]
