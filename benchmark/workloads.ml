(* The four canonical workloads.

   Each builds its system from the libraries' public functions, drives
   an open loop (flips are scheduled in virtual time, so the generator is
   never late), measures one window, checks the outputs, and records
   everything into an [Outcome.t]. A traced run additionally profiles the
   window and turns on the timed calls and the span registry that feed
   the per-layer metrics; untraced runs pay for none of that. *)

type size = Canonical | Toy  (** Toy: same code paths in about a second *)

(* The HMI whose repaints the flips are timed by. *)
let first_hmi d = (Spire.Deployment.hmis d).(0).Spire.Deployment.h_hmi

(* ---------------------------------------------------------------------- *)
(* Flip -> HMI tracking                                                    *)

(* Every flip due in the window is timed from when it was due until the
   watched HMI shows it: until the HMI first repaints the breaker in the
   position of this flip or of a later one, so the display is at least
   as new as the flip. The open loop keeps flipping through a stall, so a
   breaker can have several flips in flight, and the HMI may skip some
   of their positions; a repaint reflects the newest flip in flight that
   a replica has applied in that position, and with it every older one.
   A flip not shown by the end of the run is missed and ranks as +inf. *)
module Flips = struct
  type pending = {
    due : float;
    target : bool;
    mutable applied : float;  (** first replica's apply; nan before *)
    mutable appliers : int;  (** bit set of the replicas that applied it *)
  }

  type t = {
    engine : Sim.Engine.t;
    pending : (string, pending list) Hashtbl.t;  (** per breaker, oldest first *)
    mutable counting : bool;  (** only flips due in the window count *)
    mutable latencies : float list;  (** seconds; [infinity] = missed *)
    mutable before_next : (string * float) list;
        (** shown before the breaker's next flip: the flips Section V's
            measurement device counts *)
    mutable to_apply : float list;
    mutable apply_to_hmi : float list;
  }

  let create engine =
    {
      engine;
      pending = Hashtbl.create 1024;
      counting = false;
      latencies = [];
      before_next = [];
      to_apply = [];
      apply_to_hmi = [];
    }

  let queue t name = Option.value ~default:[] (Hashtbl.find_opt t.pending name)

  let miss t = t.latencies <- infinity :: t.latencies

  let flipped t name ~closed =
    if t.counting then
      Hashtbl.replace t.pending name
        (queue t name
        @ [ { due = Sim.Engine.now t.engine; target = closed; applied = nan; appliers = 0 } ])

  (* Every replica applies the same reports in the same order, so each
     marks the oldest flip in that position it has not applied yet. *)
  let applied t ~replica name ~closed =
    let bit = 1 lsl replica in
    match List.find_opt (fun p -> p.target = closed && p.appliers land bit = 0) (queue t name) with
    | Some p ->
        p.appliers <- p.appliers lor bit;
        if Float.is_nan p.applied then p.applied <- Sim.Engine.now t.engine
    | None -> ()

  let repainted t name ~closed =
    let now = Sim.Engine.now t.engine in
    let shows p = p.target = closed && not (Float.is_nan p.applied) in
    (* From the newest flip back to the first one this repaint shows. *)
    let rec split newer = function
      | [] -> ()
      | p :: older when shows p ->
          Hashtbl.replace t.pending name newer;
          List.iter (fun o -> t.latencies <- (now -. o.due) :: t.latencies) (p :: older);
          if newer = [] then t.before_next <- (name, now -. p.due) :: t.before_next;
          t.to_apply <- (p.applied -. p.due) :: t.to_apply;
          t.apply_to_hmi <- (now -. p.applied) :: t.apply_to_hmi
      | p :: older -> split (p :: newer) older
    in
    split [] (List.rev (queue t name))

  let finish t =
    Hashtbl.iter (fun _ q -> List.iter (fun _ -> miss t) q) t.pending;
    Hashtbl.reset t.pending

  let watch_breaker t b =
    Plc.Breaker.on_change b (fun b ->
        flipped t (Plc.Breaker.name b) ~closed:(Plc.Breaker.is_closed b))

  let watch_hmi t hmi =
    Scada.Hmi.on_display_change hmi (fun ~breaker ~closed -> repainted t breaker ~closed)

  let watch_applies t (d : Spire.Deployment.t) =
    Array.iter
      (fun (r : Spire.Deployment.replica_bundle) ->
        let replica = Scada.Master.id r.r_master in
        Scada.Master.on_apply r.r_master (fun ~exec_seq:_ op ->
            match op with
            | Scada.Op.Status { breaker; closed } -> applied t ~replica breaker ~closed
            | Scada.Op.Batch { reports; _ } ->
                List.iter (fun (breaker, closed) -> applied t ~replica breaker ~closed) reports
            | Scada.Op.Command _ | Scada.Op.Telemetry _ -> ()))
      (Spire.Deployment.replicas d)

  (* Watch one deployment's applies and its first HMI. *)
  let watch_deployment t d =
    watch_applies t d;
    watch_hmi t (first_hmi d)
end

let ms x = 1000.0 *. x

(* p50 and the tail percentile the sample supports, in ms; zeros for an
   empty sample. *)
let percentiles values =
  let a = Percentile.sorted values in
  let tail = Percentile.tail (Array.length a) in
  if Array.length a = 0 then (0.0, 0.0, tail)
  else (ms (Percentile.nearest_rank a 50.0), ms (Percentile.nearest_rank a tail), tail)

let flip_metrics out (flips : Flips.t) =
  Flips.finish flips;
  let n = List.length flips.latencies in
  let p50, tail, tail_pct = percentiles flips.latencies in
  let on_time = List.length (List.filter (fun l -> l <= 1.0) flips.latencies) in
  let missed = List.length (List.filter (fun l -> not (Float.is_finite l)) flips.latencies) in
  Outcome.check out (n > 0) "no flip was due in the window";
  Outcome.check out (Float.is_finite tail)
    (Printf.sprintf "flip tail is +inf: %d of %d flips never reached the HMI" missed n);
  Outcome.exact out "flips.missed" (float_of_int missed);
  Outcome.exact out "flip_hmi_p50_ms" p50;
  Outcome.exact out "flip_hmi_p99_ms" tail;
  Outcome.exact out "flip_hmi_on_time_pct" (100.0 *. float_of_int on_time /. float_of_int (max 1 n));
  Outcome.exact out "flips.attempted" (float_of_int n);
  Outcome.exact out "flips.tail_percentile" tail_pct

(* ---------------------------------------------------------------------- *)
(* Counters                                                                *)

let ctr = Sim.Stats.Counter.get

(* Sum over deployments of a per-replica count. *)
let sum_replicas deployments f =
  List.fold_left
    (fun acc d -> Array.fold_left (fun acc r -> acc + f r) acc (Spire.Deployment.replicas d))
    0 deployments

(* Sum over deployments of the furthest replica's count: replicas agree,
   and the max tolerates a lagging or restarted one. *)
let sum_max_replicas deployments f =
  List.fold_left
    (fun acc d -> acc + Array.fold_left (fun m r -> max m (f r)) 0 (Spire.Deployment.replicas d))
    0 deployments

let master name (r : Spire.Deployment.replica_bundle) = ctr (Scada.Master.counters r.r_master) name

let applied_count r =
  master "apply.status" r + master "apply.batch_updates" r + master "apply.command" r
  + master "apply.telemetry" r

(* Bytes and frames admitted by every switch, seen through mirror taps. *)
type wire = { mutable bytes : int; mutable frames : int }

let tap_switches deployments =
  let w = { bytes = 0; frames = 0 } in
  let tap frame =
    w.bytes <- w.bytes + Netbase.Packet.frame_size frame;
    w.frames <- w.frames + 1
  in
  List.iter
    (fun d ->
      Netbase.Switch.add_tap (Spire.Deployment.internal_switch d) tap;
      Netbase.Switch.add_tap (Spire.Deployment.external_switch d) tap)
    deployments;
  w

(* Every count the window metrics are deltas of. *)
let snapshot ~engine ~deployments ~wire =
  let prime name (r : Spire.Deployment.replica_bundle) =
    ctr (Prime.Replica.counters r.r_replica) name
  in
  let nodes name (r : Spire.Deployment.replica_bundle) =
    ctr (Spines.Node.counters r.r_internal_node) name
    + ctr (Spines.Node.counters r.r_external_node) name
  in
  let per_deployment f = List.fold_left (fun acc d -> acc + f d) 0 deployments in
  let switches name d =
    ctr (Netbase.Switch.counters (Spire.Deployment.internal_switch d)) name
    + ctr (Netbase.Switch.counters (Spire.Deployment.external_switch d)) name
  in
  let media name (r : Spire.Deployment.replica_bundle) =
    match r.r_durable with
    | Some d -> ctr (Store.Media.counters (Scada.Durable.media d)) name
    | None -> 0
  in
  let gc = Gc.quick_stat () in
  let i x = float_of_int x in
  [
    ("cpu_s", Sys.time ());
    ("minor_words", Gc.minor_words ());
    ("promoted_words", gc.Gc.promoted_words);
    ("minor_gcs", i gc.Gc.minor_collections);
    ("events", i (Sim.Engine.executed_events engine));
    ("applied", i (sum_max_replicas deployments applied_count));
    ("batch_ops", i (sum_max_replicas deployments (master "apply.batch")));
    ("batch_updates", i (sum_max_replicas deployments (master "apply.batch_updates")));
    ("telemetry_ops", i (sum_max_replicas deployments (master "apply.telemetry")));
    ("wire_bytes", i wire.bytes);
    ("frames", i wire.frames);
    ("backlog_drops", i (per_deployment (switches "drop.backlog")));
    ( "captures",
      i
        (per_deployment (fun d ->
             Netbase.Pcap.length (Spire.Deployment.internal_pcap d)
             + Netbase.Pcap.length (Spire.Deployment.external_pcap d))) );
    ("link_tx", i (sum_replicas deployments (nodes "link.tx")));
    ("dedup_drops", i (sum_replicas deployments (nodes "dedup.drop")));
    ("dijkstra", i (sum_replicas deployments (nodes "route.dijkstra")));
    ("signs", i (sum_replicas deployments (prime "crypto.sign")));
    ("verifies", i (sum_replicas deployments (prime "crypto.verify")));
    ("cache_hits", i (sum_replicas deployments (prime "crypto.cache_hit")));
    ("flushes", i (sum_replicas deployments (prime "crypto.batch_flush")));
    ("flushed_msgs", i (sum_replicas deployments (prime "crypto.batch_msgs")));
    ( "retransmits",
      i
        (sum_replicas deployments (fun r ->
             prime "order.retransmit" r + prime "suspect.retransmit" r
             + prime "po_request.retransmit" r)) );
    ("views", i (per_deployment Spire.Deployment.max_view));
    ("wal_appends", i (sum_replicas deployments (media "media.append")));
    ("fsyncs", i (sum_replicas deployments (media "media.fsync")));
    ( "checkpoints",
      i
        (sum_replicas deployments (fun r ->
             match r.r_durable with
             | Some d -> ctr (Scada.Durable.counters d) "durable.checkpoint"
             | None -> 0)) );
    ("solves", i (per_deployment (fun d -> Power.Net.solves (Spire.Deployment.power_net d))));
    ("flight_events", i (Obs.Flight.total Obs.Flight.default));
  ]

(* ---------------------------------------------------------------------- *)
(* One run                                                                 *)

type run = {
  traced : bool;
  out : Outcome.t;
  engine : Sim.Engine.t;
  started : float;  (** CPU clock when the run began *)
  timings : (string, float list) Hashtbl.t;  (** timed calls, microseconds *)
  mutable profiler : Profiler.t option;
}

let new_run ~traced ~seed =
  {
    traced;
    out = Outcome.create ();
    engine = Sim.Engine.create ~seed:(Int64.of_int seed) ();
    started = Sys.time ();
    timings = Hashtbl.create 8;
    profiler = None;
  }

(* [f ()], timed in wall-clock microseconds when the run is traced. *)
let timed run name f =
  if not run.traced then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let us = (Unix.gettimeofday () -. t0) *. 1e6 in
    Hashtbl.replace run.timings name
      (us :: Option.value ~default:[] (Hashtbl.find_opt run.timings name));
    r
  end

(* Advance virtual time in short steps, so a traced run can drain the
   runtime's event ring between them. Splitting [Engine.run] at a horizon
   executes exactly the same events in the same order. *)
let advance run ~until =
  let rec go () =
    let now = Sim.Engine.now run.engine in
    if now < until then begin
      Sim.Engine.run ~until:(Float.min until (now +. 0.25)) run.engine;
      Option.iter Profiler.poll run.profiler;
      go ()
    end
  in
  go ()

let setup_done run = Outcome.measured run.out "setup_s" (Sys.time () -. run.started)

let window_start run ~deployments ~wire =
  if run.traced then run.profiler <- Some (Profiler.start ());
  snapshot ~engine:run.engine ~deployments ~wire

let median_timing run name =
  match Hashtbl.find_opt run.timings name with
  | Some l -> Percentile.median l
  | None -> 0.0

(* Window deltas as the end-to-end and per-layer metrics. *)
let window_end run ~deployments ~wire ~window_s before =
  let after = snapshot ~engine:run.engine ~deployments ~wire in
  let profile = Option.map Profiler.stop run.profiler in
  run.profiler <- None;
  let d name = List.assoc name after -. List.assoc name before in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let applied = d "applied" in
  let per_update name = ratio (d name) applied in
  let out = run.out in
  Outcome.check out (applied > 0.0) "no update was applied in the window";
  Outcome.exact out "applied_updates_per_s" (applied /. window_s);
  Outcome.measured out "cpu_us_per_update" (1e6 *. per_update "cpu_s");
  Outcome.exact out "alloc_words_per_update" (per_update "minor_words");
  Outcome.exact out "wire_bytes_per_update" (per_update "wire_bytes");
  Outcome.exact out "applied_updates" applied;
  Outcome.measured out "window_cpu_s" (d "cpu_s");
  if run.traced then begin
    let layer = Outcome.measured out in
    layer "crypto.signs_per_update" (per_update "signs");
    layer "crypto.verifies_per_update" (per_update "verifies");
    layer "crypto.sigcache_hit_pct" (100.0 *. ratio (d "cache_hits") (d "cache_hits" +. d "verifies"));
    layer "sim.events_per_update" (per_update "events");
    layer "netbase.frames_per_update" (per_update "frames");
    layer "netbase.backlog_drops_per_update" (per_update "backlog_drops");
    layer "netbase.capture_records_per_update" (per_update "captures");
    layer "spines.link_tx_per_update" (per_update "link_tx");
    layer "spines.dedup_drops_per_update" (per_update "dedup_drops");
    layer "spines.route_dijkstra_per_update" (per_update "dijkstra");
    layer "prime.batch_msgs_per_flush" (ratio (d "flushed_msgs") (d "flushes"));
    layer "prime.retransmits_per_update" (per_update "retransmits");
    layer "prime.view_changes" (d "views");
    layer "scada.updates_per_batch" (ratio (d "batch_updates") (d "batch_ops"));
    layer "scada.telemetry_ops_per_s" (d "telemetry_ops" /. window_s);
    layer "store.wal_appends_per_update" (per_update "wal_appends");
    layer "store.fsyncs_per_update" (per_update "fsyncs");
    layer "store.checkpoints" (d "checkpoints");
    layer "power.solves_per_update" (per_update "solves");
    layer "power.toggle_us" (median_timing run "toggle");
    layer "obs.eval_us" (median_timing run "obs_eval");
    layer "obs.flight_events_per_update" (per_update "flight_events");
    layer "runtime.minor_gcs_per_1k_updates" (1000.0 *. per_update "minor_gcs");
    layer "runtime.promoted_words_per_update" (per_update "promoted_words")
  end;
  match profile with
  | None -> ()
  | Some p ->
      let layer = Outcome.measured out in
      let cpu = d "cpu_s" in
      let gc_pct = Float.min 100.0 (100.0 *. ratio p.Profiler.gc_seconds cpu) in
      let total = float_of_int p.Profiler.samples in
      let share n = (100.0 -. gc_pct) *. ratio (float_of_int n) total in
      List.iter (fun (l, n) -> layer (l ^ ".self_cpu_pct") (share n)) p.Profiler.by_layer;
      layer "runtime.self_cpu_pct" gc_pct;
      let crypto = float_of_int (List.assoc "crypto" p.Profiler.by_layer) in
      List.iter
        (fun (caller, n) ->
          layer ("crypto.from_" ^ caller ^ "_pct") (100.0 *. ratio (float_of_int n) crypto))
        p.Profiler.crypto_callers;
      layer "trace.samples" total;
      Outcome.check out (Profiler.frames_named ())
        "profile frames carry no names: build with debug info (-g)";
      Outcome.check out (p.Profiler.lost_events = 0)
        (Printf.sprintf "runtime event ring overflowed: %d GC events lost" p.Profiler.lost_events);
      let other = share (List.assoc "other" p.Profiler.by_layer) in
      Outcome.check out (other <= 2.0)
        (Printf.sprintf "%.2f%% of CPU samples are unattributed (limit 2%%)" other)

let finish run =
  Outcome.exact run.out "peak_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  run.out

let stage_metrics run (flips : Flips.t) =
  if run.traced then begin
    let p50, tail, _ = percentiles flips.to_apply in
    Outcome.measured run.out "stage.flip_to_apply_p50_ms" p50;
    Outcome.measured run.out "stage.flip_to_apply_p99_ms" tail;
    let p50, tail, _ = percentiles flips.apply_to_hmi in
    Outcome.measured run.out "stage.apply_to_hmi_p50_ms" p50;
    Outcome.measured run.out "stage.apply_to_hmi_p99_ms" tail
  end

(* E10's five Section V stages at p50, from the span registry. *)
let e10_stage_names =
  [
    ("proxy poll", "stage.poll_ms");
    ("overlay + accept", "stage.overlay_ms");
    ("pre-order", "stage.preorder_ms");
    ("order + execute", "stage.order_exec_ms");
    ("HMI delivery", "stage.hmi_ms");
  ]

let e10_stages run =
  if run.traced then begin
    let breakdown = Obs.Export.reaction_breakdown Obs.Registry.default in
    List.iter
      (fun (label, name) ->
        let v =
          match List.assoc_opt label breakdown with
          | Some s when Sim.Stats.Summary.count s > 0 -> ms (Sim.Stats.Summary.median s)
          | _ -> 0.0
        in
        Outcome.measured run.out name v)
      e10_stage_names
  end

(* After settling, the watched HMI must show every breaker as it is. *)
let check_displays out d =
  let hmi = first_hmi d and wrong = ref 0 and total = ref 0 in
  Array.iter
    (fun (p : Spire.Deployment.proxy_bundle) ->
      Array.iter
        (fun b ->
          incr total;
          if Scada.Hmi.displayed_closed hmi (Plc.Breaker.name b) <> Some (Plc.Breaker.is_closed b)
          then incr wrong)
        p.p_breakers)
    (Spire.Deployment.proxies d);
  Outcome.check out (!wrong = 0)
    (Printf.sprintf "%d of %d breakers displayed wrongly after settling" !wrong !total)

(* ---------------------------------------------------------------------- *)
(* plant-reaction and plant-faults                                         *)

(* The Section V plant: E4's three real breakers (the chaos runner's
   scenario is the same topology) on the 6-replica power-plant config,
   Modbus polled every 100 ms. *)
let plant_scenario = Chaos.Runner.default_scenario

(* Section V's measurement device flips each breaker [flips] times [gap]
   apart with random phase; the tracker times the same flips. *)
let plant_flips run ~deployment ~breakers ~flips ~gap =
  let tracker = Flips.create run.engine in
  Flips.watch_deployment tracker deployment;
  tracker.Flips.counting <- true;
  let devices =
    List.map
      (fun name ->
        (match Spire.Deployment.find_breaker deployment name with
        | Some (_, b) -> Flips.watch_breaker tracker b
        | None -> invalid_arg ("plant scenario has no " ^ name));
        (name, Spire.Measure.spire_reaction_time ~deployment ~breaker:name ~samples:flips ~gap ()))
      breakers
  in
  (tracker, devices)

(* The device stops waiting for a flip once the next one happens, so it
   must have counted exactly the tracker's flips shown before the next. *)
let cross_check out (tracker : Flips.t) devices =
  List.iter
    (fun (name, (summary, completed)) ->
      let shown =
        List.filter_map (fun (n, l) -> if n = name then Some l else None) tracker.before_next
      in
      Outcome.check out
        (List.length shown = !completed)
        (Printf.sprintf "%s: Measure completed %d flips, the tracker saw %d" name !completed
           (List.length shown));
      Outcome.check out
        (!completed = 0 || Percentile.median shown = Sim.Stats.Summary.median summary)
        (name ^ ": Measure and the tracker disagree on the median flip latency"))
    devices

let with_registry run f =
  if run.traced then Obs.Registry.with_enabled Obs.Registry.default f else f ()

let plant_reaction size ~seed ~traced =
  let run = new_run ~traced ~seed in
  with_registry run @@ fun () ->
  (* Two breakers each flipped every 250 ms, 1 000 flips in 125 s: the
     slowest flip shows in under 190 ms, the least spacing phase jitter
     leaves, so a breaker never has two flips in flight. *)
  let flips = match size with Canonical -> 500 | Toy -> 20 in
  let gap = 0.25 and boot = 3.0 in
  let deployment =
    Spire.Deployment.create ~engine:run.engine ~trace:(Sim.Trace.create ())
      ~config:(Prime.Config.power_plant ()) plant_scenario
  in
  let deployments = [ deployment ] in
  let wire = tap_switches deployments in
  advance run ~until:boot;
  setup_done run;
  let tracker, devices = plant_flips run ~deployment ~breakers:[ "B57"; "B56" ] ~flips ~gap in
  (* Flip i is due at boot + gap * (i + 1) plus up to gap/4 of phase. *)
  let window_end_at = boot +. (gap *. float_of_int (flips + 1)) in
  let before = window_start run ~deployments ~wire in
  advance run ~until:window_end_at;
  window_end run ~deployments ~wire ~window_s:(window_end_at -. boot) before;
  advance run ~until:(window_end_at +. 2.0);
  flip_metrics run.out tracker;
  cross_check run.out tracker devices;
  stage_metrics run tracker;
  e10_stages run;
  check_displays run.out deployment;
  finish run

(* One fault window of each kind, in a fixed order, [span] seconds apart
   starting at [first]; each fault lasts [span / 2]. No fault stops
   replica 0 or 1, whose daemons host the proxy's and the watched HMI's
   sessions: a session's 3 s failover would hide the pushes the flips
   are timed by. The wipe comes last, when the log has moved past what
   catchup can replay. *)
let fault_schedule ~n ~first ~span =
  let at k = first +. (span *. float_of_int k) and heal k = first +. (span *. (float_of_int k +. 0.5)) in
  let open Chaos.Fault in
  sort
    [
      { at = at 0; action = Crash_replica 4 };
      { at = heal 0; action = Restart_replica_intact 4 };
      { at = at 1; action = Partition (isolate_links ~n 3) };
      { at = heal 1; action = Heal (isolate_links ~n 3) };
      { at = at 2; action = Leader_silent };
      { at = heal 2; action = Leader_restore };
      { at = at 3; action = Lossy_link { link = (2, 3); drop = 0.3; duplicate = 0.05; delay_max = 0.02 } };
      { at = heal 3; action = Clear_link (2, 3) };
      { at = at 4; action = Crash_replica 5 };
      { at = at 4; action = Disk_wipe 5 };
      { at = heal 4; action = Restart_replica 5 };
    ]

(* Restarted replicas: time from restart until the replica's execution
   reaches the furthest running replica, seen in its execute hook. *)
let recovery_tracker run deployment =
  let replicas = Spire.Deployment.replicas deployment in
  let restarted = Hashtbl.create 4 and recovered = ref [] in
  Array.iteri
    (fun i (r : Spire.Deployment.replica_bundle) ->
      Prime.Replica.set_on_execute r.r_replica (fun ~exec_seq:_ _ ->
          match Hashtbl.find_opt restarted i with
          | None -> ()
          | Some t0 ->
              let front =
                Array.fold_left
                  (fun m (o : Spire.Deployment.replica_bundle) ->
                    if Prime.Replica.is_running o.r_replica then
                      max m (Prime.Replica.exec_seq o.r_replica)
                    else m)
                  0 replicas
              in
              if Prime.Replica.exec_seq r.r_replica >= front then begin
                Hashtbl.remove restarted i;
                recovered := (Sim.Engine.now run.engine -. t0) :: !recovered
              end))
    replicas;
  (restarted, recovered)

let plant_faults size ~seed ~traced =
  let run = new_run ~traced ~seed in
  let flight = Obs.Flight.default and probes = Obs.Probe.default in
  let prev_flight = Obs.Flight.enabled flight and prev_probes = Obs.Probe.enabled probes in
  Fun.protect ~finally:(fun () ->
      Obs.Flight.reset flight;
      Obs.Probe.reset probes;
      Obs.Flight.set_enabled flight prev_flight;
      Obs.Probe.set_enabled probes prev_probes)
  @@ fun () ->
  with_registry run @@ fun () ->
  (* Observability as an operator runs it: on before the build, so every
     subsystem registers its probes. *)
  Obs.Flight.reset flight;
  Obs.Flight.set_enabled flight true;
  Obs.Probe.reset probes;
  Obs.Probe.set_enabled probes true;
  Obs.Flight.set_clock flight (fun () -> Sim.Engine.now run.engine);
  (* Two breakers flipping 250 ms apart each: 1 000 flips in 125 s. *)
  let flips, first, span = match size with Canonical -> (500, 8.0, 23.0) | Toy -> (60, 1.0, 2.8) in
  let gap = 0.25 and boot = 5.0 in
  let config = Prime.Config.power_plant () in
  let alert = Obs.Alert.create ~flight () in
  let deployment =
    Spire.Deployment.create ~engine:run.engine ~trace:(Sim.Trace.create ()) ~config
      plant_scenario
  in
  let deployments = [ deployment ] in
  let wire = tap_switches deployments in
  advance run ~until:boot;
  setup_done run;
  let injector = Chaos.Injector.create ~rng:(Sim.Rng.create (Int64.of_int ((seed * 2) + 1))) deployment in
  (* The chaos runner's health policy: liveness is owed only while at
     most f replicas are faulty and the system has been calm a while. *)
  let heal_grace = 10.0 in
  let degraded () =
    Chaos.Injector.crashed_count injector
    + Chaos.Injector.isolated_count injector
    + (if Chaos.Injector.leader_fault_active injector then 1 else 0)
    > config.Prime.Config.f
    || Chaos.Injector.max_active_drop injector >= 0.5
  in
  let was_degraded = ref false and calm_since = ref (-.heal_grace) in
  let is_healthy () =
    (not !was_degraded) && Sim.Engine.now run.engine -. !calm_since >= heal_grace
  in
  let invariant = Chaos.Invariant.create ~engine:run.engine ~is_healthy () in
  Chaos.Invariant.attach invariant deployment;
  let restarted, recovered = recovery_tracker run deployment in
  let silent_at = ref None and view_change = ref None in
  let window_s = gap *. float_of_int (flips + 1) in
  let schedule = fault_schedule ~n:config.Prime.Config.n ~first ~span in
  List.iter
    (fun { Chaos.Fault.at; action } ->
      ignore
        (Sim.Engine.schedule_at run.engine ~time:(boot +. at) (fun () ->
             Chaos.Injector.apply injector action;
             let now = Sim.Engine.now run.engine in
             (match action with
             | Chaos.Fault.Leader_silent -> silent_at := Some (now, Spire.Deployment.max_view deployment)
             | Chaos.Fault.Restart_replica i | Chaos.Fault.Restart_replica_intact i ->
                 Chaos.Invariant.expect_recovery invariant ~replica:i;
                 Hashtbl.replace restarted i now
             | _ -> ());
             let d = degraded () in
             if !was_degraded && not d then calm_since := now;
             was_degraded := d)))
    schedule;
  let view_poll =
    Sim.Engine.every run.engine ~period:0.01 (fun () ->
        match !silent_at with
        | Some (t0, v0) when Spire.Deployment.max_view deployment > v0 ->
            view_change := Some (Sim.Engine.now run.engine -. t0);
            silent_at := None
        | _ -> ())
  in
  let sampler =
    Sim.Engine.every run.engine ~period:0.05 (fun () ->
        timed run "obs_eval" (fun () ->
            Obs.Alert.evaluate alert ~time:(Sim.Engine.now run.engine) (Obs.Probe.sample probes)))
  in
  (* One command a second through the HMI, as the scenario driver issues
     them (the opposite of what is displayed), but only to the breaker
     that is not being flipped: a command to B57 or B56 would race the
     flips being timed. *)
  let hmi = first_hmi deployment and commands = ref 0 in
  let commander =
    Sim.Engine.every run.engine ~period:1.0 (fun () ->
        incr commands;
        let close =
          match Scada.Hmi.displayed_closed hmi "B10-1" with Some c -> not c | None -> true
        in
        ignore (Scada.Hmi.command hmi ~breaker:"B10-1" ~close))
  in
  let tracker, _ = plant_flips run ~deployment ~breakers:[ "B57"; "B56" ] ~flips ~gap in
  let before = window_start run ~deployments ~wire in
  advance run ~until:(boot +. window_s);
  window_end run ~deployments ~wire ~window_s before;
  List.iter (Sim.Engine.cancel_timer run.engine) [ commander; sampler; view_poll ];
  advance run ~until:(boot +. window_s +. 5.0);
  Chaos.Invariant.stop invariant;
  let out = run.out in
  flip_metrics out tracker;
  stage_metrics run tracker;
  e10_stages run;
  check_displays out deployment;
  let violations = Chaos.Invariant.violations invariant in
  Outcome.check out (violations = [])
    (Printf.sprintf "%d invariant violations, first: %s" (List.length violations)
       (match violations with
       | v :: _ -> v.Chaos.Invariant.v_invariant ^ " " ^ v.Chaos.Invariant.v_detail
       | [] -> ""));
  Outcome.check out
    (List.length !recovered = 2)
    (Printf.sprintf "%d of 2 restarted replicas rejoined" (List.length !recovered));
  Outcome.check out (!view_change <> None) "the view never changed after the leader went silent";
  Outcome.exact out "invariant.violations" (float_of_int (List.length violations));
  Outcome.exact out "commands.issued" (float_of_int !commands);
  Outcome.exact out "state_transfers"
    (float_of_int
       (sum_replicas deployments (fun r ->
            ctr (Prime.Replica.counters r.r_replica) "app_checkpoint.installed")));
  if traced then begin
    Outcome.measured out "prime.view_change_ms" (ms (Option.value ~default:0.0 !view_change));
    Outcome.measured out "store.recovery_ms" (ms (List.fold_left Float.max 0.0 !recovered))
  end;
  finish run

(* ---------------------------------------------------------------------- *)
(* grid-steady and grid-telemetry                                          *)

(* E18's scale-out case: 1 000 breakers on 50 sites, 100 HMIs over 16
   shards, polls every 500 ms; every toggled breaker flips every 5 s on
   staggered phases (200 updates/s when all of them toggle). *)
let toggle_period = 5.0

type grid_size = {
  devices : int;
  shards : int;
  hmis : int;
  warm_until : float;  (** toggles start at 10 s and reach every breaker by 15 s *)
  window : float;
  settle : float;
}

let grid_size = function
  | Canonical -> { devices = 1_000; shards = 16; hmis = 100; warm_until = 15.0; window = 20.0; settle = 3.0 }
  | Toy -> { devices = 80; shards = 2; hmis = 2; warm_until = 12.0; window = 4.0; settle = 3.0 }

(* grid-telemetry's DNP3 sites: every other round of [shards] sites. The
   shard map deals sites round-robin, so each shard gets both kinds. Only
   the Modbus sites' breakers toggle: a DNP3 proxy ships a poll's status
   Batch and its Telemetry under one per-origin cursor through different
   replicas, and when the Telemetry is ordered first the replicas drop
   the Batch as stale (README.md, findings). *)
let dnp3_site ~shards k = k / shards mod 2 = 1

let grid_run size ~seed ~traced ~telemetry =
  let run = new_run ~traced ~seed in
  let g = grid_size size in
  let scenario = Plc.Power.synthetic ~devices:g.devices () in
  let dnp3 =
    if telemetry then
      List.filteri (fun k _ -> dnp3_site ~shards:g.shards k) scenario.Plc.Power.plcs
    else []
  in
  let toggled =
    List.concat_map
      (fun (p : Plc.Power.plc_spec) -> if List.memq p dnp3 then [] else p.breaker_names)
      scenario.Plc.Power.plcs
  in
  (* grid-steady: E18's 150 kB/s ports. grid-telemetry: default ports. *)
  let grid =
    Spire.Grid.create
      ~n_hmis:((g.hmis + g.shards - 1) / g.shards)
      ~proxy_poll_period:0.5
      ?switch_bandwidth:(if telemetry then None else Some 150_000.0)
      ~dnp3_plcs:(List.map (fun (p : Plc.Power.plc_spec) -> p.plc_name) dnp3)
      ~engine:run.engine ~trace:(Sim.Trace.create ())
      ~config:(Prime.Config.create ~f:1 ~k:0 ())
      ~shards:g.shards scenario
  in
  let shards = Spire.Grid.shards grid in
  let deployments = Array.to_list (Array.map (fun s -> s.Spire.Grid.s_deployment) shards) in
  let wire = tap_switches deployments in
  advance run ~until:5.0;
  setup_done run;
  let tracker = Flips.create run.engine in
  List.iter (Flips.watch_deployment tracker) deployments;
  (* Stratified random phases: breaker i toggles at a seeded point of its
     own 1/n-th of the cycle, so the load stays flat and in E18's order
     while the flips land at seed-dependent points of the poll cycles. *)
  let n_b = List.length toggled in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let toggles = ref [] in
  List.iteri
    (fun i name ->
      match Spire.Grid.find_breaker grid name with
      | None -> invalid_arg ("grid has no breaker " ^ name)
      | Some (_, b) ->
          Flips.watch_breaker tracker b;
          let phase = toggle_period *. (float_of_int i +. Sim.Rng.float rng 1.0) /. float_of_int n_b in
          ignore
            (Sim.Engine.schedule run.engine ~delay:phase (fun () ->
                 toggles :=
                   Sim.Engine.every run.engine ~period:toggle_period (fun () ->
                       timed run "toggle" (fun () -> Plc.Breaker.toggle_force b))
                   :: !toggles)))
    toggled;
  (* The operator-side reader: a bad-data sweep over one replica's state
     per shard and a digest-voted grid overview, once a second. *)
  let sweeps = ref 0 and observable = ref 0 and agreed = ref 0 and queried = ref 0 in
  let overview () =
    let o = timed run "overview" (fun () -> Spire.Grid.overview grid) in
    queried := !queried + List.length o;
    agreed := !agreed + List.length (List.filter (fun s -> s.Spire.Grid.o_agreed) o);
    o
  in
  if telemetry then
    ignore
      (Sim.Engine.every run.engine ~period:1.0 (fun () ->
           List.iter
             (fun d ->
               let state =
                 Scada.Master.state (Spire.Deployment.replicas d).(0).Spire.Deployment.r_master
               in
               let model = Power.Net.model (Spire.Deployment.power_net d) in
               incr sweeps;
               match timed run "estimator" (fun () -> Chaos.Estimator.evaluate model state) with
               | Some _ -> incr observable
               | None -> ())
             deployments;
           ignore (overview ())));
  advance run ~until:g.warm_until;
  tracker.Flips.counting <- true;
  let before = window_start run ~deployments ~wire in
  let t_end = g.warm_until +. g.window in
  advance run ~until:t_end;
  tracker.Flips.counting <- false;
  window_end run ~deployments ~wire ~window_s:g.window before;
  let out = run.out in
  List.iter (Sim.Engine.cancel_timer run.engine) !toggles;
  advance run ~until:(t_end +. g.settle);
  flip_metrics out tracker;
  stage_metrics run tracker;
  List.iter (check_displays out) deployments;
  let final = overview () in
  let disagree = List.length (List.filter (fun s -> not s.Spire.Grid.o_agreed) final) in
  Outcome.check out (disagree = 0)
    (Printf.sprintf "grid overview: %d of %d shards without f+1 agreement" disagree
       (List.length final));
  if traced then begin
    let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
    Outcome.measured out "estimator.sweep_us" (median_timing run "estimator");
    Outcome.measured out "estimator.observable_pct" (pct !observable !sweeps);
    Outcome.measured out "grid.overview_us" (median_timing run "overview");
    Outcome.measured out "grid.overview_agreed_pct" (pct !agreed !queried)
  end;
  finish run

(* ---------------------------------------------------------------------- *)

type t = { name : string; run : size -> seed:int -> traced:bool -> Outcome.t }

let all =
  [
    { name = "plant-reaction"; run = plant_reaction };
    { name = "grid-steady"; run = (fun size -> grid_run size ~telemetry:false) };
    { name = "grid-telemetry"; run = (fun size -> grid_run size ~telemetry:true) };
    { name = "plant-faults"; run = plant_faults };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
