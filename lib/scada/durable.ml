(* Durable state for one SCADA master / Prime replica pair.

   Every executed update is appended to a write-ahead log on the
   replica's simulated device, and every [checkpoint_interval] executions
   the full application state plus replication cursors are snapshotted
   into an authenticated [Store.Checkpoint] (two alternating slot files,
   so a crash mid-write always leaves the previous checkpoint intact).
   Recovery paths:

   - [local_recover] (disk intact): load the best verified checkpoint
     slot, replay the WAL suffix beyond it, and fast-forward the replica
     via [Prime.Replica.install_app_checkpoint]. Anything past the last
     durable execution boundary is re-fetched through normal Prime
     catchup.
   - [install_from_peer] (lagging or disk wiped): adopt a peer checkpoint
     that won f + 1 matching-root votes, then restart the local log from
     that point and persist the adopted checkpoint.

   A peer asking for state is served [transfer_checkpoint]: the latest
   checkpoint on disk, or, in a run too young to have taken one, one
   built from the current state exactly as the periodic checkpoint is
   (not persisted). Its root is producer-independent, so f + 1 replicas
   at the same point still match.

   Two consistency subtleties shape the WAL record format:

   - [Order.try_execute] advances the ordering cursors for a whole batch
     before per-update hooks run, so no single update record carries
     cursors consistent with its own execution point. The log therefore
     interleaves two record kinds: [Exec] (one applied update) and [Mark]
     (written from the replica's batch-end hook, where cursors, exec_seq
     and application state all describe the same settled point). Recovery
     installs at the last mark; a suffix with no trailing mark — a torn
     tail, or a crash mid-catchup — is treated as unsynced loss and
     re-fetched through normal Prime catchup.
   - The checkpoint schedule must be a pure function of the agreed
     history, or transfer votes on the root could never reach f + 1
     matches. [Prime.Replica] owns it: its batch-end observer is told
     [~checkpoint:true] at the first settled batch end whose exec_seq
     enters a new [checkpoint_interval] window (where it moves its
     release mark), which every replica observes at the same point. *)

type t = {
  keystore : Crypto.Signature.keystore;
  keypair : Crypto.Signature.keypair;
  replica : Prime.Replica.t;
  state : State.t;
  media : Store.Media.t;
  wal : Store.Wal.t;
  checkpoint_interval : int;
  counters : Sim.Stats.Counter.t;
  mutable latest : Store.Checkpoint.t option;
  mutable slot : int; (* next checkpoint slot, alternating 0/1 *)
  mutable transfer_bytes : int;
}

let slot_file slot = Printf.sprintf "ck%d" slot

(* Flight events: the durable store has no engine handle, so timestamps
   fall back to the recorder's clock (installed by whichever harness
   enabled it). *)
let flight ~severity ~kind detail =
  Obs.Flight.record Obs.Flight.default ~severity ~subsystem:"store" ~kind detail

let flight_on () = Obs.Flight.recording Obs.Flight.default

let media t = t.media

let wal t = t.wal

let counters t = t.counters

let latest_checkpoint t = t.latest

let transfer_bytes t = t.transfer_bytes

(* --- WAL record codec ------------------------------------------------------- *)

type record =
  | Exec of { x_exec_seq : int; x_client : string; x_client_seq : int; x_op : string }
  | Mark of { m_next_exec_pp : int; m_exec_seq : int; m_cursor : int array }

let encode_record = function
  | Exec { x_exec_seq; x_client; x_client_seq; x_op } ->
      Wire.encode ~size_hint:(32 + String.length x_op) (fun b ->
          Wire.w_u8 b 0;
          Wire.w_int b x_exec_seq;
          Wire.w_str b x_client;
          Wire.w_int b x_client_seq;
          Wire.w_str b x_op)
  | Mark { m_next_exec_pp; m_exec_seq; m_cursor } ->
      Wire.encode ~size_hint:(16 + (4 * Array.length m_cursor)) (fun b ->
          Wire.w_u8 b 1;
          Wire.w_int b m_next_exec_pp;
          Wire.w_int b m_exec_seq;
          Wire.w_int_array b m_cursor)

let decode_record payload =
  let r = Wire.reader payload in
  match Wire.r_u8 r with
  | 0 ->
      let x_exec_seq = Wire.r_int r in
      let x_client = Wire.r_str r in
      let x_client_seq = Wire.r_int r in
      let x_op = Wire.r_str r in
      Some (Exec { x_exec_seq; x_client; x_client_seq; x_op })
  | 1 ->
      let m_next_exec_pp = Wire.r_int r in
      let m_exec_seq = Wire.r_int r in
      let m_cursor = Wire.r_int_array r in
      Some (Mark { m_next_exec_pp; m_exec_seq; m_cursor })
  | _ -> None

(* --- checkpointing ----------------------------------------------------------- *)

let persist_checkpoint t ck =
  let file = slot_file t.slot in
  Store.Media.write t.media ~file (Store.Checkpoint.encode ck);
  Store.Media.fsync t.media ~file;
  t.slot <- 1 - t.slot;
  t.latest <- Some ck;
  (* Sealed segments below the live one are fully covered by the
     checkpoint now on disk. *)
  ignore (Store.Wal.gc_before t.wal ~segment:(Store.Wal.current_segment t.wal));
  Sim.Stats.Counter.incr t.counters "durable.checkpoint";
  if flight_on () then
    flight ~severity:Obs.Flight.Info ~kind:"checkpoint.persist"
      (Printf.sprintf "replica %d checkpointed exec %d"
         (Prime.Replica.id t.replica) ck.Store.Checkpoint.ck_exec_seq)

(* A checkpoint of the current execution point, signed by this replica. *)
let snapshot t =
  let next_exec_pp, exec_seq, cursor, client_seqs = Prime.Replica.order_state t.replica in
  Store.Checkpoint.make ~keypair:t.keypair ~replica:(Prime.Replica.id t.replica)
    ~next_exec_pp ~exec_seq ~cursor ~client_seqs ~app_state:(State.serialize t.state)
    ~app_root:(State.digest_root t.state)

let transfer_checkpoint t =
  match t.latest with Some ck -> ck | None -> snapshot t

let on_execute t ~exec_seq (u : Prime.Msg.Update.t) =
  Store.Wal.append t.wal
    (encode_record
       (Exec
          {
            x_exec_seq = exec_seq;
            x_client = u.Prime.Msg.Update.client;
            x_client_seq = u.Prime.Msg.Update.client_seq;
            x_op = u.Prime.Msg.Update.op;
          }))

(* Settled batch ends are agreed points of the ordered history, and the
   replica says [~checkpoint] at the same exec_seq on every replica —
   which is what lets transfer votes on the checkpoint root reach f + 1
   matches. *)
let on_batch_end t ~checkpoint =
  let next_exec_pp, exec_seq, cursor = Prime.Replica.exec_point t.replica in
  Store.Wal.append t.wal
    (encode_record
       (Mark { m_next_exec_pp = next_exec_pp; m_exec_seq = exec_seq; m_cursor = cursor }));
  if checkpoint then persist_checkpoint t (snapshot t)

(* --- recovery ---------------------------------------------------------------- *)

let load_slot t slot =
  match Store.Media.read t.media ~file:(slot_file slot) with
  | None -> None
  | Some blob -> (
      match Store.Checkpoint.decode blob with
      | None ->
          Sim.Stats.Counter.incr t.counters "durable.bad_checkpoint";
          if flight_on () then
            flight ~severity:Obs.Flight.Warn ~kind:"checkpoint.bad"
              (Printf.sprintf "replica %d: slot %d does not decode"
                 (Prime.Replica.id t.replica) slot);
          None
      | Some ck ->
          let signer = Prime.Msg.replica_identity ck.Store.Checkpoint.ck_replica in
          (* The signed root covers the state's digest root, not the blob
             bytes; re-deriving the blob's root binds the two, so a
             flipped byte anywhere in the slot file still reads as a bad
             checkpoint. *)
          let blob_bound =
            match State.root_of_blob t.state ck.Store.Checkpoint.ck_app_state with
            | Ok root -> String.equal root ck.Store.Checkpoint.ck_app_root
            | Error _ -> false
          in
          if blob_bound && Store.Checkpoint.verify ~keystore:t.keystore ~signer ck then Some ck
          else begin
            Sim.Stats.Counter.incr t.counters "durable.bad_checkpoint";
            if flight_on () then
              flight ~severity:Obs.Flight.Warn ~kind:"checkpoint.bad"
                (Printf.sprintf "replica %d: slot %d fails verification"
                   (Prime.Replica.id t.replica) slot);
            None
          end)

(* The winning slot index rides along so recovery can resume the
   alternation correctly: the next checkpoint must overwrite the *other*
   slot, or a crash mid-write would destroy the newest checkpoint while
   its covering WAL prefix is already gone. *)
let best_checkpoint t =
  match (load_slot t 0, load_slot t 1) with
  | None, None -> None
  | Some ck, None -> Some (0, ck)
  | None, Some ck -> Some (1, ck)
  | Some a, Some b ->
      if a.Store.Checkpoint.ck_exec_seq >= b.Store.Checkpoint.ck_exec_seq then Some (0, a)
      else Some (1, b)

(* Replay the WAL suffix beyond [from_exec]: buffer [Exec] records and
   flush them into the application state whenever a [Mark] arrives, which
   becomes the new install point. A trailing run of updates with no mark —
   a torn tail, or a crash before the batch-end record — is dropped:
   those executions return through Prime catchup instead of being
   installed with inconsistent cursors.

   The suffix must also reach back to [from_exec]. Per-record exec
   contiguity cannot be demanded — client-level dedup executes an
   ordered slot without logging an [Exec] record, so legitimate WALs
   skip seqs — but the WAL is physically an append-only run whose only
   discontinuity is the GC'd front (every install jump resets the log
   and writes a base [Mark]). Coverage therefore reduces to the oldest
   surviving record: it must sit at or before [from_exec], or be the
   [Exec] immediately after it. When recovery falls back to the older
   checkpoint slot (the newer one corrupted) after the covering WAL
   prefix was GC'd, the oldest record sits past that point instead;
   applying such a suffix would silently diverge from the agreed
   history, so replay reports the gap and the caller abandons local
   recovery in favour of an f + 1-voted peer transfer. *)
let replay_suffix t ~from_exec =
  let install = ref None in
  let pending = ref [] in
  let keys = ref [] in
  let replayed = ref 0 in
  let covered = ref false in
  let suffix_present = ref false in
  let first = ref true in
  ignore
    (Store.Wal.replay t.wal ~f:(fun payload ->
         match decode_record payload with
         | exception Wire.Truncated -> ()
         | None -> ()
         | Some r ->
             (if !first then begin
                first := false;
                match r with
                | Exec x -> covered := x.x_exec_seq <= from_exec + 1
                | Mark m -> covered := m.m_exec_seq <= from_exec
              end);
             (match r with
             | Exec x -> if x.x_exec_seq > from_exec then suffix_present := true
             | Mark m -> if m.m_exec_seq > from_exec then suffix_present := true);
             if !covered then
               match r with
               | Exec x -> if x.x_exec_seq > from_exec then pending := Exec x :: !pending
               | Mark m ->
                   if m.m_exec_seq > from_exec then begin
                     List.iter
                       (function
                         | Exec x -> (
                             incr replayed;
                             keys := (x.x_client, x.x_client_seq) :: !keys;
                             match Op.decode x.x_op with
                             | None -> ()
                             | Some op -> ignore (State.apply t.state ~exec_seq:x.x_exec_seq op))
                         | Mark _ -> ())
                       (List.rev !pending);
                     pending := [];
                     install := Some (m.m_next_exec_pp, m.m_exec_seq, m.m_cursor)
                   end));
  let gap = !suffix_present && not !covered in
  (!install, !keys, !replayed, gap)

let local_recover t =
  let best = best_checkpoint t in
  let ck = Option.map snd best in
  let base_exec, base_keys =
    match ck with
    | None -> (0, [])
    | Some ck -> (ck.Store.Checkpoint.ck_exec_seq, ck.Store.Checkpoint.ck_client_seqs)
  in
  let loaded =
    match ck with
    | None -> true (* nothing durable: recover from an empty log *)
    | Some ck -> (
        match State.load t.state ck.Store.Checkpoint.ck_app_state with
        | Ok () -> true
        | Error _ ->
            Sim.Stats.Counter.incr t.counters "durable.bad_checkpoint";
            false)
  in
  if not loaded then false
  else begin
    let install, keys, replayed, gap = replay_suffix t ~from_exec:base_exec in
    if gap then begin
      (* The durable trail cannot prove continuity past the checkpoint;
         undo any partially replayed state and fail over to peer
         transfer. *)
      State.reset t.state;
      Sim.Stats.Counter.incr t.counters "durable.replay_gap";
      if flight_on () then
        flight ~severity:Obs.Flight.Alarm ~kind:"wal.replay_gap"
          (Printf.sprintf "replica %d: WAL suffix does not reach exec %d, abandoning local recovery"
             (Prime.Replica.id t.replica) base_exec);
      false
    end
    else begin
      let installed =
        match (install, ck) with
        | Some (next_exec_pp, exec_seq, cursor), _ ->
            Prime.Replica.install_app_checkpoint t.replica ~next_exec_pp ~exec_seq ~cursor
              ~client_seqs:(base_keys @ keys);
            true
        | None, Some c ->
            Prime.Replica.install_app_checkpoint t.replica
              ~next_exec_pp:c.Store.Checkpoint.ck_next_exec_pp
              ~exec_seq:c.Store.Checkpoint.ck_exec_seq ~cursor:c.Store.Checkpoint.ck_cursor
              ~client_seqs:base_keys;
            true
        | None, None -> false
      in
      t.latest <- ck;
      (match best with
      | Some (slot, _) -> t.slot <- 1 - slot (* next write targets the other slot *)
      | None -> t.slot <- 0);
      if installed then begin
        Sim.Stats.Counter.incr ~by:(max 1 replayed) t.counters "durable.recovered_records";
        Sim.Stats.Counter.incr t.counters "durable.local_recover"
      end;
      installed
    end
  end

(* Restart the log at an install point: the old records precede the
   adopted history, and a base [Mark] anchors the fresh log so recovery
   can later prove the retained suffix reaches back to any checkpoint
   taken from here on. *)
let restart_log_at t ~next_exec_pp ~exec_seq ~cursor =
  Store.Wal.reset t.wal;
  Store.Wal.append t.wal
    (encode_record (Mark { m_next_exec_pp = next_exec_pp; m_exec_seq = exec_seq; m_cursor = cursor }));
  Store.Wal.sync t.wal

let install_from_peer t ck =
  match
    (* Bind the blob to the f+1-voted root before adopting it: the vote
       covered [ck_app_root], not the blob bytes a single sender
       attached. *)
    match State.root_of_blob t.state ck.Store.Checkpoint.ck_app_state with
    | Error _ as e -> e
    | Ok root when not (String.equal root ck.Store.Checkpoint.ck_app_root) ->
        Error "state blob does not match voted app root"
    | Ok _ -> (
        match State.load t.state ck.Store.Checkpoint.ck_app_state with
        | Error _ as e -> e
        | Ok () -> Ok ())
  with
  | Error e -> Error e
  | Ok () ->
      (* Our old log precedes the adopted point (we were the lagging
         replica); a fresh log starts from the checkpoint. *)
      restart_log_at t ~next_exec_pp:ck.Store.Checkpoint.ck_next_exec_pp
        ~exec_seq:ck.Store.Checkpoint.ck_exec_seq ~cursor:ck.Store.Checkpoint.ck_cursor;
      Prime.Replica.install_app_checkpoint t.replica
        ~next_exec_pp:ck.Store.Checkpoint.ck_next_exec_pp
        ~exec_seq:ck.Store.Checkpoint.ck_exec_seq ~cursor:ck.Store.Checkpoint.ck_cursor
        ~client_seqs:ck.Store.Checkpoint.ck_client_seqs;
      persist_checkpoint t ck;
      t.transfer_bytes <- t.transfer_bytes + Store.Checkpoint.size ck;
      Sim.Stats.Counter.incr t.counters "durable.peer_install";
      if flight_on () then
        flight ~severity:Obs.Flight.Warn ~kind:"checkpoint.install"
          (Printf.sprintf "replica %d adopted peer checkpoint at exec %d (%d bytes)"
             (Prime.Replica.id t.replica) ck.Store.Checkpoint.ck_exec_seq
             (Store.Checkpoint.size ck));
      Ok ()

(* --- lifecycle --------------------------------------------------------------- *)

let on_crash t = Store.Media.crash t.media

let wipe_disk t =
  Store.Media.wipe t.media;
  Store.Wal.reset t.wal;
  t.latest <- None;
  t.slot <- 0;
  if flight_on () then
    flight ~severity:Obs.Flight.Alarm ~kind:"disk.wipe"
      (Printf.sprintf "replica %d: durable media wiped" (Prime.Replica.id t.replica))

let create ~keystore ~keypair ~config ~replica ~state ~media =
  let t =
    {
      keystore;
      keypair;
      replica;
      state;
      media;
      wal = Store.Wal.create media;
      checkpoint_interval = config.Prime.Config.checkpoint_interval;
      counters = Sim.Stats.Counter.create ();
      latest = None;
      slot = 0;
      transfer_bytes = 0;
    }
  in
  Prime.Replica.set_on_execute replica (fun ~exec_seq u -> on_execute t ~exec_seq u);
  Prime.Replica.set_on_batch_end replica (fun ~checkpoint -> on_batch_end t ~checkpoint);
  (* Health probe; no-op unless a harness enabled [Obs.Probe]. *)
  Obs.Probe.register Obs.Probe.default
    ~name:(Printf.sprintf "store.durable.%d" (Prime.Replica.id replica))
    (fun () ->
      let exec = Prime.Replica.exec_seq t.replica in
      let ck_exec =
        match t.latest with Some ck -> ck.Store.Checkpoint.ck_exec_seq | None -> 0
      in
      [
        ("ck_exec", float_of_int ck_exec);
        ( "ck_lag_windows",
          float_of_int ((exec / t.checkpoint_interval) - (ck_exec / t.checkpoint_interval)) );
        ("wal_records", float_of_int (Store.Wal.records_appended t.wal));
        ("wal_segments", float_of_int (Store.Wal.segment_count t.wal));
      ]);
  t
