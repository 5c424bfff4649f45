(* Tests for the durable state subsystem: the simulated device, the
   CRC-framed write-ahead log, authenticated checkpoints, and the
   end-to-end recovery paths (local WAL replay and f+1-verified
   checkpoint transfer) over a full Spire deployment. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let media ?(seed = 11L) name = Store.Media.create ~rng:(Sim.Rng.create seed) name

(* --- Media ------------------------------------------------------------------- *)

let test_media_written_vs_synced () =
  let m = media "disk" in
  Store.Media.append m ~file:"a" "hello ";
  Store.Media.append m ~file:"a" "world";
  Alcotest.(check (option string)) "reads written" (Some "hello world")
    (Store.Media.read m ~file:"a");
  check_int "nothing synced yet" 0 (Store.Media.synced_length m ~file:"a");
  Store.Media.fsync m ~file:"a";
  check_int "all synced" 11 (Store.Media.synced_length m ~file:"a");
  check "io stall accounted" true (Store.Media.io_stall m > 0.0)

let test_media_crash_drops_unsynced_tail () =
  let m = media "disk" in
  Store.Media.append m ~file:"a" "durable";
  Store.Media.fsync m ~file:"a";
  Store.Media.append m ~file:"a" " volatile";
  Store.Media.crash m;
  Alcotest.(check (option string)) "tail gone" (Some "durable") (Store.Media.read m ~file:"a")

let test_media_tear_shortens_tail () =
  let m = media "disk" in
  Store.Media.append m ~file:"a" "durable";
  Store.Media.fsync m ~file:"a";
  Store.Media.append m ~file:"a" "0123456789";
  Store.Media.tear m ~file:"a";
  let len = Store.Media.length m ~file:"a" in
  check "tear kept a prefix of the tail" true (len >= 7 && len < 17);
  check "synced prefix intact" true
    (String.length "durable" = Store.Media.synced_length m ~file:"a")

let test_media_corrupt_flips_synced_bit () =
  let m = media "disk" in
  Store.Media.append m ~file:"a" "payload-payload-payload";
  check "no synced data, no corruption" false (Store.Media.corrupt m ~file:"a");
  Store.Media.fsync m ~file:"a";
  check "corrupted" true (Store.Media.corrupt m ~file:"a");
  check "contents changed" true
    (Store.Media.read m ~file:"a" <> Some "payload-payload-payload")

let test_media_wipe_and_write () =
  let m = media "disk" in
  Store.Media.write m ~file:"slot" "v1";
  Store.Media.fsync m ~file:"slot";
  Store.Media.write m ~file:"slot" "version-2";
  Alcotest.(check (option string)) "write replaces" (Some "version-2")
    (Store.Media.read m ~file:"slot");
  (* The rewrite is unsynced: a crash before fsync loses the slot, which
     is why checkpoint writers alternate between two slot files. *)
  Store.Media.crash m;
  Alcotest.(check (option string)) "unsynced rewrite lost" None
    (Store.Media.read m ~file:"slot");
  Store.Media.write m ~file:"slot" "v3";
  Store.Media.wipe m;
  check "wiped" false (Store.Media.exists m ~file:"slot");
  check_int "no files" 0 (List.length (Store.Media.files m))

(* --- Wal --------------------------------------------------------------------- *)

let records wal =
  let acc = ref [] in
  let n = Store.Wal.replay wal ~f:(fun r -> acc := r :: !acc) in
  (n, List.rev !acc)

let test_wal_append_replay_roundtrip () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  let payloads = List.init 20 (Printf.sprintf "record-%04d") in
  List.iter (Store.Wal.append wal) payloads;
  let n, rs = records wal in
  check_int "all replayed" 20 n;
  Alcotest.(check (list string)) "in order, byte-exact" payloads rs

let test_wal_rotation_and_gc () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  (* Records a tenth of a segment long: 30 of them fill three segments. *)
  let payloads =
    List.init 30 (fun i ->
        Printf.sprintf "record-%04d" i ^ String.make (Store.Wal.segment_size / 10) 'x')
  in
  List.iter (Store.Wal.append wal) payloads;
  check "rotated" true (Store.Wal.segment_count wal > 1);
  let n, rs = records wal in
  check_int "replay crosses segments" 30 n;
  Alcotest.(check (list string)) "order preserved across segments" payloads rs;
  let dropped = Store.Wal.gc_before wal ~segment:(Store.Wal.current_segment wal) in
  check "gc dropped sealed segments" true (dropped > 0);
  let n2, rs2 = records wal in
  check "suffix survives gc" true (n2 < 30 && n2 > 0);
  Alcotest.(check (list string)) "gc kept the newest records"
    (List.filteri (fun i _ -> i >= 30 - n2) payloads)
    rs2

let test_wal_corrupt_record_truncates_replay () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  let payloads = List.init 12 (Printf.sprintf "record-%04d") in
  List.iter (Store.Wal.append wal) payloads;
  Store.Wal.sync wal;
  check "a synced byte was flipped" true (Store.Media.corrupt_any m);
  let n, rs = records wal in
  check "replay stopped short, no crash" true (n < 12);
  Alcotest.(check (list string)) "surviving records are the valid prefix"
    (List.filteri (fun i _ -> i < n) payloads)
    rs;
  check "corruption counted" true
    (Sim.Stats.Counter.get (Store.Wal.counters wal) "wal.corrupt_record" >= 1);
  (* The log was physically cut back: appending works and replays cleanly. *)
  Store.Wal.append wal "after-the-cut";
  let n2, rs2 = records wal in
  check_int "append after truncation" (n + 1) n2;
  check_str "new record present" "after-the-cut" (List.nth rs2 n)

let test_wal_crash_loses_only_unsynced_tail () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  let every = Store.Wal.fsync_every in
  List.iter (Store.Wal.append wal) (List.init (every + 2) (Printf.sprintf "r%d"));
  (* [every] records are covered by a durability point; 2 ride in the
     tail. *)
  Store.Media.crash m;
  let n, _ = records wal in
  check_int "synced prefix survives" every n

let test_wal_tear_mid_record () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  let total = Store.Wal.fsync_every + 1 in
  List.iter (Store.Wal.append wal) (List.init total (Printf.sprintf "record-%04d"));
  (* Tear the unsynced tail mid-record; replay must stop cleanly at a
     frame boundary inside the synced prefix or the torn point. *)
  check "tore a tail" true (Store.Media.tear_any m);
  let n, rs = records wal in
  check "no crash, prefix only" true (n <= total);
  List.iteri (fun i r -> check_str "prefix intact" (Printf.sprintf "record-%04d" i) r) rs

let test_wal_reopen_continues () =
  let m = media "disk" in
  let wal = Store.Wal.create m in
  List.iter (Store.Wal.append wal) [ "a"; "b"; "c" ];
  (* A process restart: a fresh Wal.t over the same device. *)
  let wal2 = Store.Wal.create m in
  let n, rs = records wal2 in
  check_int "previous records visible" 3 n;
  Alcotest.(check (list string)) "byte-exact" [ "a"; "b"; "c" ] rs;
  Store.Wal.append wal2 "d";
  let n2, _ = records wal2 in
  check_int "continues after reopen" 4 n2

(* --- Checkpoint -------------------------------------------------------------- *)

let make_keys () =
  let ks = Crypto.Signature.create_keystore () in
  let kp0 = Crypto.Signature.generate ks "replica-0" in
  let kp1 = Crypto.Signature.generate ks "replica-1" in
  (ks, kp0, kp1)

let sample_ck ~keypair ~replica =
  Store.Checkpoint.make ~keypair ~replica ~next_exec_pp:7 ~exec_seq:42
    ~cursor:[| 5; 9; 2; 0 |]
    ~client_seqs:[ ("hmi-1", 3); ("hmi-0", 5) ]
    ~app_state:"opaque-state-blob"
    ~app_root:(Crypto.Sha256.digest "sample-app-root")

let test_checkpoint_roundtrip_and_verify () =
  let ks, kp0, _ = make_keys () in
  let ck = sample_ck ~keypair:kp0 ~replica:0 in
  check "verifies" true (Store.Checkpoint.verify ~keystore:ks ~signer:"replica-0" ck);
  check "wrong signer rejected" false
    (Store.Checkpoint.verify ~keystore:ks ~signer:"replica-1" ck);
  match Store.Checkpoint.decode (Store.Checkpoint.encode ck) with
  | None -> Alcotest.fail "decode failed"
  | Some ck' ->
      check "decoded verifies" true
        (Store.Checkpoint.verify ~keystore:ks ~signer:"replica-0" ck');
      check "round equal" true (ck = ck')

let test_checkpoint_root_is_replica_independent () =
  let _, kp0, kp1 = make_keys () in
  let a = sample_ck ~keypair:kp0 ~replica:0 in
  let b = sample_ck ~keypair:kp1 ~replica:1 in
  (* Same logical state, different snapshotting replica: same root (so
     f+1 root votes can match), different signatures. *)
  check "roots match" true (a.Store.Checkpoint.ck_root = b.Store.Checkpoint.ck_root);
  check "signers differ" true (a.Store.Checkpoint.ck_auth <> b.Store.Checkpoint.ck_auth)

let test_checkpoint_tamper_detected () =
  let ks, kp0, _ = make_keys () in
  let ck = sample_ck ~keypair:kp0 ~replica:0 in
  let tampered = { ck with Store.Checkpoint.ck_app_root = Crypto.Sha256.digest "other-root" } in
  check "app-root tampering breaks the root" false
    (Store.Checkpoint.verify ~keystore:ks ~signer:"replica-0" tampered);
  let meta_tampered = { ck with Store.Checkpoint.ck_exec_seq = 43 } in
  check "meta tampering breaks the root" false
    (Store.Checkpoint.verify ~keystore:ks ~signer:"replica-0" meta_tampered);
  let blob = Store.Checkpoint.encode ck in
  let cut = String.sub blob 0 (String.length blob - 3) in
  check "truncated blob rejected" true (Store.Checkpoint.decode cut = None)

(* Decoding is total on arbitrary bytes, and every accepted input is
   exactly the encoding of what it decodes to: no trailing junk, no
   second spelling of the same checkpoint. Inputs mix raw random bytes
   with valid encodings that are extended, truncated or bit-flipped. *)
let prop_checkpoint_decode_canonical =
  let _, kp0, _ = make_keys () in
  let gen_valid =
    QCheck.Gen.(
      map
        (fun ((exec_seq, next_exec_pp, cursor), (client_seqs, app_state)) ->
          Store.Checkpoint.encode
            (Store.Checkpoint.make ~keypair:kp0 ~replica:0 ~next_exec_pp ~exec_seq
               ~cursor:(Array.of_list cursor) ~client_seqs ~app_state
               ~app_root:(Crypto.Sha256.digest app_state)))
        (pair
           (triple int int (list_size (int_bound 6) int))
           (pair (list_size (int_bound 4) (pair string_small small_nat)) string_small)))
  in
  let mutate blob =
    QCheck.Gen.(
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
        ])
  in
  QCheck.Test.make ~count:1000 ~name:"checkpoint decode is total and canonical"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         oneof [ string_size (int_bound 200); gen_valid >>= mutate ]))
    (fun s ->
      match Store.Checkpoint.decode s with
      | None -> true
      | Some ck -> String.equal (Store.Checkpoint.encode ck) s)

(* --- end-to-end recovery over a full deployment ------------------------------- *)

let mini_scenario =
  {
    Plc.Power.scenario_name = "store-mini";
    plcs =
      [ { Plc.Power.plc_name = "MAIN"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true } ];
    feeds = [ { Plc.Power.load_name = "Building-A"; path = [ "B10-1"; "B57" ] } ];
  }

(* The checkpoint root covers the state's digest root, not the blob
   bytes; the install-time binding ([State.root_of_blob]) must catch any
   single-bit flip in the blob — either the derived root changes or the
   blob stops parsing. *)
let test_checkpoint_blob_binding_detects_flips () =
  let s = Scada.State.create mini_scenario in
  ignore (Scada.State.apply s ~exec_seq:1 (Scada.Op.Status { breaker = "B57"; closed = false }));
  ignore
    (Scada.State.apply_changes s ~exec_seq:2
       (Scada.Op.Batch { origin = "proxy-MAIN"; cursor = 3; reports = [ ("B56", false) ] }));
  let blob = Scada.State.serialize s in
  let root = Scada.State.digest_root s in
  (match Scada.State.root_of_blob s blob with
  | Ok r -> check "intact blob binds to its root" true (String.equal r root)
  | Error e -> Alcotest.fail e);
  let undetected = ref 0 in
  for i = 0 to String.length blob - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      match Scada.State.root_of_blob s (Bytes.to_string b) with
      | Ok r -> if String.equal r root then incr undetected
      | Error _ -> ()
    done
  done;
  check_int "every single-bit flip detected" 0 !undetected

let make_spire ?(config = Prime.Config.create ~f:1 ~k:0 ~checkpoint_interval:8 ()) ?seed () =
  let engine =
    match seed with
    | None -> Sim.Engine.create ()
    | Some s -> Sim.Engine.create ~seed:(Int64.of_int s) ()
  in
  let trace = Sim.Trace.create () in
  let d = Spire.Deployment.create ~engine ~trace ~config mini_scenario in
  (engine, trace, d)

let run engine ~until = Sim.Engine.run ~until engine

let hmi d = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi

let main_breaker d name =
  match Spire.Deployment.find_breaker d name with
  | Some (_, b) -> b
  | None -> Alcotest.fail ("breaker not found: " ^ name)

let master_digests d =
  Array.to_list
    (Array.map
       (fun r -> Scada.State.digest (Scada.Master.state r.Spire.Deployment.r_master))
       (Spire.Deployment.replicas d))

let check_converged d =
  match master_digests d with
  | first :: rest -> List.iter (fun s -> check_str "digests agree" first s) rest
  | [] -> Alcotest.fail "no masters"

let durable_counter d i key =
  Sim.Stats.Counter.get (Scada.Durable.counters (Spire.Deployment.durable d i)) key

let test_replicas_checkpoint_at_same_points () =
  let engine, _, d = make_spire () in
  run engine ~until:3.0;
  for i = 1 to 8 do
    ignore
      (Sim.Engine.schedule engine ~delay:(3.0 +. (0.6 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B57")))
  done;
  run engine ~until:15.0;
  (* The schedule is a pure function of the agreed history: every replica
     holds a latest checkpoint with the same root at the same exec point. *)
  let latest =
    Array.to_list
      (Array.mapi
         (fun i _ ->
           match Scada.Durable.latest_checkpoint (Spire.Deployment.durable d i) with
           | None -> Alcotest.fail "no checkpoint taken"
           | Some ck -> ck)
         (Spire.Deployment.replicas d))
  in
  match latest with
  | first :: rest ->
      List.iter
        (fun ck ->
          check_int "same exec point" first.Store.Checkpoint.ck_exec_seq
            ck.Store.Checkpoint.ck_exec_seq;
          check "same root" true (first.Store.Checkpoint.ck_root = ck.Store.Checkpoint.ck_root))
        rest
  | [] -> Alcotest.fail "no replicas"

let test_local_recovery_replays_wal () =
  let engine, _, d = make_spire () in
  run engine ~until:3.0;
  for i = 1 to 6 do
    ignore
      (Sim.Engine.schedule engine ~delay:(3.0 +. (0.6 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B57")))
  done;
  run engine ~until:8.0;
  Spire.Deployment.take_down_replica d 3;
  run engine ~until:10.0;
  Spire.Deployment.bring_up_replica_intact d 3;
  check_int "local recovery path taken" 1 (durable_counter d 3 "durable.local_recover");
  check "wal records replayed" true (durable_counter d 3 "durable.recovered_records" > 0);
  ignore (Scada.Hmi.command (hmi d) ~breaker:"B56" ~close:false);
  run engine ~until:25.0;
  check "follows new commands" false (Plc.Breaker.is_closed (main_breaker d "B56"));
  check_converged d

let gap_recovery_scenario ?seed ?(prepare = fun _engine _d -> ()) () =
  (* Tiny replication log: a replica that misses more updates than the
     log retains cannot catch up at the ordering level and must adopt an
     f+1-verified checkpoint. [prepare] runs right after the lagging
     replica rejoins, before the final run — attack-injection tests hook
     in there. *)
  let config = Prime.Config.create ~f:1 ~k:0 ~log_retention:8 ~checkpoint_interval:8 () in
  let engine, trace, d = make_spire ~config ?seed () in
  run engine ~until:3.0;
  Spire.Deployment.take_down_replica d 3;
  for i = 1 to 12 do
    ignore
      (Sim.Engine.schedule engine ~delay:(3.0 +. (0.6 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B57")))
  done;
  run engine ~until:12.0;
  Spire.Deployment.bring_up_replica_clean d 3;
  prepare engine d;
  for i = 1 to 6 do
    ignore
      (Sim.Engine.schedule engine ~delay:(12.5 +. (2.0 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B56")))
  done;
  run engine ~until:40.0;
  (engine, trace, d)

let test_gap_recovery_via_checkpoint_transfer () =
  let _, _, d = gap_recovery_scenario () in
  let r3 = (Spire.Deployment.replicas d).(3) in
  (* Ordered-certificate GC passed the lagging cursor, so replication-level
     catchup gave up and the [state_transfer_needed] hook fired... *)
  check "state_transfer_needed fired" true
    (Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
       "transfer.requested"
     >= 1);
  (* ...and the application-level transfer closed the gap. *)
  check "transfer completed" true
    (Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
       "transfer.completed"
     >= 1);
  check "peer checkpoint adopted" true (durable_counter d 3 "durable.peer_install" >= 1);
  check "checkpoint bytes accounted" true
    (Scada.Durable.transfer_bytes (Spire.Deployment.durable d 3) > 0);
  check_converged d

let test_gap_recovery_transfer_is_deterministic () =
  let observe () =
    let _, _, d = gap_recovery_scenario ~seed:99 () in
    let r3 = (Spire.Deployment.replicas d).(3) in
    let received =
      Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
        "transfer.bytes_received"
    in
    let sent =
      Array.fold_left
        (fun acc r ->
          acc
          + Sim.Stats.Counter.get
              (Scada.Master.counters r.Spire.Deployment.r_master)
              "transfer.bytes_sent")
        0 (Spire.Deployment.replicas d)
    in
    let adopted = Scada.Durable.transfer_bytes (Spire.Deployment.durable d 3) in
    (received, sent, adopted, master_digests d)
  in
  let a = observe () in
  let b = observe () in
  check "two same-seed runs move byte-identical transfer traffic" true (a = b)

let test_single_replica_cannot_force_fabricated_checkpoint () =
  (* One compromised replica serves a fabricated, self-signed checkpoint
     and replays it over and over during the rejoiner's transfer window.
     Votes are counted per distinct authenticated replica, so a single
     voter never reaches f + 1 and the fabricated state is never
     installed.

     Two same-seed passes: the first finds the (deterministic) moment
     the transfer starts from the trace; the second replays the run and
     fires the flood right inside that window, before any honest reply
     can arrive. *)
  let seed = 7 in
  let _, trace, _ = gap_recovery_scenario ~seed () in
  let t_start =
    match
      Sim.Trace.find trace ~category:"scada"
        ~contains:"master 3: starting application-level state transfer"
    with
    | Some e -> e.Sim.Trace.time
    | None -> Alcotest.fail "transfer never started"
  in
  let inject engine d =
    let r0 = (Spire.Deployment.replicas d).(0) in
    let r3 = (Spire.Deployment.replicas d).(3) in
    ignore
      (Sim.Engine.schedule_at engine ~time:(t_start +. 1e-6) (fun () ->
           let fake =
             Store.Checkpoint.make ~keypair:r0.Spire.Deployment.r_keypair ~replica:0
               ~next_exec_pp:999 ~exec_seq:9000
               ~cursor:[| 0; 0; 0; 0 |]
               ~client_seqs:[]
               ~app_state:
                 (Scada.State.serialize (Scada.Master.state r0.Spire.Deployment.r_master))
               ~app_root:
                 (Scada.State.digest_root (Scada.Master.state r0.Spire.Deployment.r_master))
           in
           let vote =
             Scada.Messages.encode_checkpoint_reply ~rep:0
               ~root:fake.Store.Checkpoint.ck_root
           in
           let msg =
             Scada.Messages.Checkpoint_reply
               {
                 ckr_rep = 0;
                 ckr_ck = fake;
                 ckr_sig = Crypto.Signature.sign r0.Spire.Deployment.r_keypair vote;
               }
           in
           (* The compromised replica answers the request three times
              over — once per 1s retry round and then some. *)
           for _ = 1 to 3 do
             Scada.Master.handle_payload r3.Spire.Deployment.r_master
               (Scada.Messages.Scada_msg msg)
           done))
  in
  let _, _, d = gap_recovery_scenario ~seed ~prepare:inject () in
  let r0 = (Spire.Deployment.replicas d).(0) in
  let r3 = (Spire.Deployment.replicas d).(3) in
  check "fabricated exec point never installed" true
    (Prime.Replica.exec_seq r3.Spire.Deployment.r_replica < 9000);
  check_int "rejoiner agrees with the honest quorum"
    (Prime.Replica.exec_seq r0.Spire.Deployment.r_replica)
    (Prime.Replica.exec_seq r3.Spire.Deployment.r_replica);
  check "transfer completed via honest replicas" true
    (Sim.Stats.Counter.get (Scada.Master.counters r3.Spire.Deployment.r_master)
       "transfer.completed"
     >= 1);
  check_converged d

let slot_exec d i slot =
  match
    Store.Media.read
      (Scada.Durable.media (Spire.Deployment.durable d i))
      ~file:(Printf.sprintf "ck%d" slot)
  with
  | None -> None
  | Some blob ->
      Option.map (fun ck -> ck.Store.Checkpoint.ck_exec_seq) (Store.Checkpoint.decode blob)

(* Toggle the breaker until replica [i]'s checkpoint count reaches
   [target], returning the reached simulated time. *)
let drive_until_checkpoints engine d i ~target ~from_t =
  let t = ref from_t in
  while durable_counter d i "durable.checkpoint" < target && !t < from_t +. 120.0 do
    Plc.Breaker.toggle_force (main_breaker d "B57");
    t := !t +. 1.0;
    run engine ~until:!t
  done;
  if durable_counter d i "durable.checkpoint" < target then
    Alcotest.fail "checkpoints did not accumulate";
  !t

let test_recovery_resumes_slot_alternation () =
  let engine, _, d = make_spire () in
  run engine ~until:3.0;
  (* Accumulate checkpoints until the *newest* lives in slot 0 — the
     slot a recovery that forgot the alternation would overwrite next. *)
  let ck_count = ref 0 in
  let t = ref (drive_until_checkpoints engine d 3 ~target:2 ~from_t:3.0) in
  ck_count := durable_counter d 3 "durable.checkpoint";
  if !ck_count land 1 = 0 then begin
    t := drive_until_checkpoints engine d 3 ~target:(!ck_count + 1) ~from_t:!t;
    ck_count := durable_counter d 3 "durable.checkpoint"
  end;
  let newest =
    match (slot_exec d 3 0, slot_exec d 3 1) with
    | Some a, Some b -> max a b
    | _ -> Alcotest.fail "both slots should hold checkpoints"
  in
  Spire.Deployment.take_down_replica d 3;
  run engine ~until:(!t +. 2.0);
  Spire.Deployment.bring_up_replica_intact d 3;
  check_int "recovered locally" 1 (durable_counter d 3 "durable.local_recover");
  (* Exactly one more checkpoint: it must land in the *older* slot, so
     both slots now hold checkpoints at least as new as the pre-crash
     best — a crash between its write and fsync can only lose the older
     one. *)
  ignore (drive_until_checkpoints engine d 3 ~target:(!ck_count + 1) ~from_t:(!t +. 2.0));
  (match (slot_exec d 3 0, slot_exec d 3 1) with
  | Some a, Some b ->
      check "newest checkpoint was not overwritten" true (min a b >= newest)
  | _ -> Alcotest.fail "a checkpoint slot went missing");
  check_converged d

let test_corrupt_newest_slot_past_gcd_wal_fails_over () =
  (* Chaos corrupts the newest checkpoint slot; the older slot still
     verifies, but the WAL prefix covering the span between the two was
     collected at the newer checkpoint. Local recovery must detect that
     the surviving suffix does not reach back to the older checkpoint
     and fail over to peer transfer instead of installing a gapped —
     silently divergent — state. *)
  let engine, _, d = make_spire () in
  run engine ~until:3.0;
  (* Flip a breaker every poll until the WAL seals its first segment and
     the next checkpoint collects it: the older checkpoint's suffix is
     gone, the newer one's survives. *)
  let wal = Scada.Durable.wal (Spire.Deployment.durable d 3) in
  let collected () = Sim.Stats.Counter.get (Store.Wal.counters wal) "wal.segment_gc" > 0 in
  let t = ref 3.0 in
  while (not (collected ())) && !t < 600.0 do
    Plc.Breaker.toggle_force (main_breaker d "B57");
    t := !t +. 0.1;
    run engine ~until:!t
  done;
  if not (collected ()) then Alcotest.fail "no WAL segment was collected";
  let t = !t in
  (* The surviving suffix is durable, so the crash keeps all of it. *)
  Store.Wal.sync wal;
  Spire.Deployment.take_down_replica d 3;
  let dur = Spire.Deployment.durable d 3 in
  let newest_slot =
    match (slot_exec d 3 0, slot_exec d 3 1) with
    | Some a, Some b -> if a > b then 0 else 1
    | _ -> Alcotest.fail "both slots should hold checkpoints"
  in
  check "newest slot corrupted" true
    (Store.Media.corrupt (Scada.Durable.media dur)
       ~file:(Printf.sprintf "ck%d" newest_slot));
  run engine ~until:(t +. 2.0);
  Spire.Deployment.bring_up_replica_intact d 3;
  (* The older slot alone cannot anchor the surviving WAL suffix. *)
  check_int "no gapped local recovery" 0 (durable_counter d 3 "durable.local_recover");
  check "replay gap detected" true (durable_counter d 3 "durable.replay_gap" >= 1);
  check "corrupt checkpoint counted" true
    (durable_counter d 3 "durable.bad_checkpoint" >= 1);
  run engine ~until:(t +. 25.0);
  check_converged d

let test_wiped_disk_means_fresh_store () =
  let engine, _, d = make_spire () in
  run engine ~until:3.0;
  for i = 1 to 6 do
    ignore
      (Sim.Engine.schedule engine ~delay:(3.0 +. (0.6 *. float_of_int i)) (fun () ->
           Plc.Breaker.toggle_force (main_breaker d "B57")))
  done;
  run engine ~until:8.0;
  Spire.Deployment.take_down_replica d 3;
  run engine ~until:10.0;
  Spire.Deployment.bring_up_replica_clean d 3;
  (* Clean image: the device was wiped, so nothing was locally recovered. *)
  check_int "no local recovery from a wiped disk" 0
    (durable_counter d 3 "durable.local_recover");
  run engine ~until:25.0;
  check_converged d

let () =
  Alcotest.run "store"
    [
      ( "media",
        [
          ("written vs synced", `Quick, test_media_written_vs_synced);
          ("crash drops unsynced tail", `Quick, test_media_crash_drops_unsynced_tail);
          ("tear shortens tail", `Quick, test_media_tear_shortens_tail);
          ("corrupt flips a synced bit", `Quick, test_media_corrupt_flips_synced_bit);
          ("wipe and write", `Quick, test_media_wipe_and_write);
        ] );
      ( "wal",
        [
          ("append/replay roundtrip", `Quick, test_wal_append_replay_roundtrip);
          ("rotation and gc", `Quick, test_wal_rotation_and_gc);
          ("corrupt record truncates replay", `Quick, test_wal_corrupt_record_truncates_replay);
          ("crash loses only unsynced tail", `Quick, test_wal_crash_loses_only_unsynced_tail);
          ("tear mid-record", `Quick, test_wal_tear_mid_record);
          ("reopen continues", `Quick, test_wal_reopen_continues);
        ] );
      ( "checkpoint",
        [
          ("roundtrip and verify", `Quick, test_checkpoint_roundtrip_and_verify);
          ("root is replica independent", `Quick, test_checkpoint_root_is_replica_independent);
          ("tampering detected", `Quick, test_checkpoint_tamper_detected);
          ("blob binding detects flips", `Quick, test_checkpoint_blob_binding_detects_flips);
          QCheck_alcotest.to_alcotest prop_checkpoint_decode_canonical;
        ] );
      ( "recovery",
        [
          ("replicas checkpoint at the same points", `Slow,
            test_replicas_checkpoint_at_same_points);
          ("local recovery replays the wal", `Slow, test_local_recovery_replays_wal);
          ("gap recovery via checkpoint transfer", `Slow,
            test_gap_recovery_via_checkpoint_transfer);
          ("transfer traffic is deterministic", `Slow,
            test_gap_recovery_transfer_is_deterministic);
          ("one replica cannot force a fabricated checkpoint", `Slow,
            test_single_replica_cannot_force_fabricated_checkpoint);
          ("recovery resumes slot alternation", `Slow,
            test_recovery_resumes_slot_alternation);
          ("corrupt newest slot past gc'd wal fails over", `Slow,
            test_corrupt_newest_slot_past_gcd_wal_fails_over);
          ("wiped disk starts a fresh store", `Slow, test_wiped_disk_means_fresh_store);
        ] );
    ]
