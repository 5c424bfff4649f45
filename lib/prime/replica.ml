(* Prime replica: orchestrates pre-ordering, ordering, suspect-leader,
   view changes, reconciliation and catchup over an abstract transport.

   Summaries and pre-prepares go out when they become useful, coalesced
   for [emit_delay] and never closer together than [summary_period] and
   [delta_pp]: a replica's summary once its preorder vector advanced, the
   leader's pre-prepare once the matrix it could propose advances some
   origin's eligibility. The replica also owns timers on the simulation
   engine:
   - the idle summary refresh (every summary_refresh_period once
     anything certified, so a lost summary cannot leave matrices stale);
   - the leader's delta_pp tick, for matrix changes that advance no
     eligibility. A leader with no change to propose sends nothing;
   - suspect-leader evaluation (turnaround-time and matrix-freshness
     checks);
   - reconciliation: re-requests of missing bodies, and retransmission
     of what has waited a full [reconcile_period] (instances accepted
     at least one period ago, PO-requests assigned before the previous
     tick; younger traffic is still in flight, and votes that overtake
     their pre-prepare are counted by [Order], not dropped);
   - catchup probing, when ordering has visibly moved past my execution
     point or, in a quiet group, when f + 1 peers' stored summaries
     certify updates I have not executed and a whole tick passed without
     my executing anything.

   State retention: each time a settled batch end enters a new
   [checkpoint_interval] window of [exec_seq], the replica records a
   mark, its (next_exec_pp, execution cursor), and releases what lies
   below the previous mark: ordering instances below its next_exec_pp,
   and per origin the pre-order slots and acks at or below its cursor
   that are also certified here. So executed protocol state lives one to
   two intervals, and any message for released state is dropped before
   verification. A replica lagging past that point catches up through
   [Catchup_reply] entries ([log_retention] executions) or the
   application's checkpoint transfer, as one past the log does. The
   same marks are the checkpoint schedule: the batch-end observer is
   told [~checkpoint:true] exactly when the mark moved, so the durable
   store snapshots where Prime releases, and nowhere else.

   Misbehaviour knobs ([set_misbehavior]) model the attacks the
   benchmarks measure: a silently crashed leader, a leader delaying
   pre-prepares to just under the detection bound, and a leader censoring
   one origin's summaries. *)

type misbehavior =
  | Honest
  | Crash_silent
  | Slow_leader of float (* added delay before each pre-prepare emission *)
  | Censor_origin of int (* leader zeroes this origin's matrix column *)
  | Equivocate (* leader sends conflicting pre-prepares to different replicas *)

type transport = {
  send : dst:int -> Msg.t -> unit;
  broadcast : Msg.t -> unit; (* to every other replica *)
  reply_to_client : client:string -> Msg.t -> unit;
}

type app = {
  apply : exec_seq:int -> Msg.Update.t -> unit;
  (* Replication-level catchup cannot cover the gap: the application must
     run its own state transfer (Section III-A), then call
     [install_app_checkpoint]. *)
  state_transfer_needed : unit -> unit;
}

(* Pending turnaround-time entries: summaries I broadcast that the
   leader's pre-prepares have not yet covered. *)
type tat_pending = { sent_at : float; sent_sum : int }

type freshness = {
  mutable best_sum : int; (* freshest sum announced by this origin *)
  mutable armed_sum : int; (* the announcement the current deadline tracks *)
  mutable cover_deadline : float option;
}

type t = {
  config : Config.t;
  id : int;
  keypair : Crypto.Signature.keypair;
  keystore : Crypto.Signature.keystore;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  transport : transport;
  mutable app : app;
  mutable preorder : Preorder.t;
  mutable order : Order.t;
  (* view / leader election *)
  mutable view : int;
  mutable suspected_view : int; (* highest view I've sent a suspect for *)
  suspects : (int, int) Hashtbl.t; (* view -> suspecting replicas, a [Voters] bit set *)
  vc_reports : (int, (int, Msg.t) Hashtbl.t) Hashtbl.t; (* view -> reports *)
  mutable leader_active : bool; (* I am leader of [view] and finished VC *)
  (* View-change liveness: [view_live] turns true once the view's leader
     demonstrably works (we accepted one of its pre-prepares, or we are
     it); until then our Vc_report is retransmitted alongside other
     reconciliation traffic, because a single lost report can otherwise
     wedge the view change forever on a lossy network. *)
  mutable view_live : bool;
  mutable my_vc_report : Msg.t option;
  mutable next_pp_seq : int;
  mutable last_pp_matrix : Msg.matrix; (* my last proposal; [||] = none in this view *)
  mutable last_pp_time : float;
  (* Per origin, how far my last proposal made updates eligible. *)
  proposed_eligible : int array;
  (* The previous tick saw a change I have not proposed yet. *)
  mutable change_waiting : bool;
  (* Pending event-driven emissions (see [emit_delay]). *)
  mutable summary_due : Sim.Engine.event_id option;
  mutable pp_due : Sim.Engine.event_id option;
  (* suspect-leader state *)
  mutable last_summary_time : float;
  mutable tat_pending : tat_pending list;
  (* Censorship detection: per origin, the freshest summary sum we know
     and the deadline by which the leader must cover it (None = covered). *)
  origin_freshness : (int, freshness) Hashtbl.t;
  (* execution / client dedup / catchup *)
  executed_clients : (string * int, int) Hashtbl.t; (* executed op -> exec_seq (reply cache) *)
  exec_log : (int, Msg.Update.t) Hashtbl.t;
  mutable awaiting_app_transfer : bool;
  (* At the previous catchup tick: did f + 1 peers' summaries show
     updates past my execution cursor, and where did my execution stand? *)
  mutable peers_ahead_at_tick : bool;
  mutable next_exec_pp_at_tick : int;
  catchup_votes : (string, int list) Hashtbl.t; (* reply content -> distinct signed voters *)
  (* reconciliation *)
  outstanding_recon : (int * int, float) Hashtbl.t;
  (* My highest assigned preorder sequence at the previous reconcile
     tick: only requests up to it are old enough to retransmit. *)
  mutable po_assigned_by_last_tick : int;
  (* origin resets after proactive recovery *)
  mutable origin_synced : bool; (* my own sequence is safely above any prior use *)
  stored_resets : (int, int * Crypto.Signature.t) Hashtbl.t; (* origin -> new_start, sig *)
  rebase_reports : (int, int) Hashtbl.t; (* reporter -> its view of my column *)
  sig_cache : Sigcache.t;
  (* lifecycle / behaviour *)
  mutable running : bool;
  mutable timers : Sim.Engine.timer list;
  mutable misbehavior : misbehavior;
  counters : Sim.Stats.Counter.t;
  mutable on_execute_hooks : (exec_seq:int -> Msg.Update.t -> unit) list;
  (* Called whenever execution reaches a settled point: the ordering
     cursors, [Order.exec_seq], and the application state all describe the
     same point of the agreed history. Fired after each fully-executed
     batch and after a catchup reply is adopted in full — never mid-batch,
     where [Order.try_execute] has already advanced the cursors past the
     update currently being applied. [~checkpoint] says the mark moved. *)
  mutable on_batch_end : checkpoint:bool -> unit;
  (* False while catchup entries are being adopted: [Order.exec_cursor] and
     [next_exec_pp] lag the true execution point until the responder's
     cursors are installed at [cr_upto], so no mark or checkpoint taken in
     that window would be a deterministic function of the ordered
     history. *)
  mutable cursors_settled : bool;
  (* The last mark recorded at a settled checkpoint boundary:
     (next_exec_pp, execution cursor). The next boundary releases below
     it. [mark_window] is the [checkpoint_interval] window of that
     boundary. *)
  mutable mark : (int * int array) option;
  mutable mark_window : int;
}

(* Verified-signature cache entries per replica. *)
let sig_cache_entries = 512

let null_app =
  { apply = (fun ~exec_seq:_ _ -> ()); state_transfer_needed = (fun () -> ()) }

let create ~engine ~trace ~keystore ~keypair ~transport ~id config =
  let t =
  {
    config;
    id;
    keypair;
    keystore;
    engine;
    trace;
    transport;
    app = null_app;
    preorder = Preorder.create config ~my_id:id;
    order = Order.create config ~my_id:id;
    view = 0;
    suspected_view = -1;
    suspects = Hashtbl.create 8;
    vc_reports = Hashtbl.create 8;
    leader_active = id = Config.leader_of_view config 0;
    view_live = true;
    my_vc_report = None;
    next_pp_seq = 1;
    last_pp_matrix = [||];
    last_pp_time = 0.0;
    proposed_eligible = Array.make config.Config.n 0;
    change_waiting = false;
    summary_due = None;
    pp_due = None;
    last_summary_time = 0.0;
    tat_pending = [];
    origin_freshness = Hashtbl.create 8;
    executed_clients = Hashtbl.create 64;
    exec_log = Hashtbl.create 64;
    awaiting_app_transfer = false;
    peers_ahead_at_tick = false;
    next_exec_pp_at_tick = 0;
    catchup_votes = Hashtbl.create 8;
    outstanding_recon = Hashtbl.create 64;
    po_assigned_by_last_tick = 0;
    origin_synced = true;
    stored_resets = Hashtbl.create 8;
    rebase_reports = Hashtbl.create 8;
    sig_cache = Sigcache.create ~capacity:sig_cache_entries;
    running = false;
    timers = [];
    misbehavior = Honest;
    counters = Sim.Stats.Counter.create ();
    on_execute_hooks = [];
    on_batch_end = (fun ~checkpoint:_ -> ());
    cursors_settled = true;
    mark = None;
    mark_window = 0;
  }
  in
  (* Telemetry: certification has no single message of its own — it is
     completed by whichever request/ack closed the quorum — so the
     preorder state machine reports it through this hook. The global
     span store keeps only the first mark per stage, i.e. the earliest
     certification across the replica group. *)
  Preorder.set_on_certified t.preorder (fun ~origin ~po_seq ->
      if Obs.Registry.enabled Obs.Registry.default then
        match Preorder.update_for t.preorder ~origin ~po_seq with
        | Some u ->
            Obs.Registry.mark Obs.Registry.default ~trace:u.Msg.Update.op
              ~stage:Obs.Registry.stage_preorder ~time:(Sim.Engine.now engine)
        | None -> ());
  (* Health probes: no-ops unless a harness enabled [Obs.Probe] before
     building the deployment (ordinary tests never accumulate these). *)
  Obs.Probe.register Obs.Probe.default ~name:(Printf.sprintf "prime.replica.%d" id)
    (fun () ->
      [
        ("aru", float_of_int (Array.fold_left ( + ) 0 (Preorder.aru t.preorder)));
        ("exec_seq", float_of_int (Order.exec_seq t.order));
        ("running", if t.running then 1.0 else 0.0);
        ("view", float_of_int t.view);
      ]);
  Obs.Probe.register Obs.Probe.default ~name:(Printf.sprintf "crypto.sigcache.%d" id)
    (fun () ->
      let hits = float_of_int (Sim.Stats.Counter.get t.counters "crypto.cache_hit") in
      let verifies = float_of_int (Sim.Stats.Counter.get t.counters "crypto.verify") in
      [
        ("hit_rate", if hits +. verifies > 0.0 then hits /. (hits +. verifies) else 0.0);
        ("hits", hits);
        ("size", float_of_int (Sigcache.size t.sig_cache));
        ("verifies", verifies);
      ]);
  t

let id t = t.id

let view t = t.view

let counters t = t.counters

let exec_seq t = Order.exec_seq t.order

let is_running t = t.running

let origin_synced t = t.origin_synced

let misbehavior t = t.misbehavior

let is_leader t = t.id = Config.leader_of_view t.config t.view && t.leader_active

let set_app t app = t.app <- app

let set_misbehavior t m = t.misbehavior <- m

(* Registration, not replacement: chaos invariants and the durable store
   both observe executions. *)
let set_on_execute t hook = t.on_execute_hooks <- t.on_execute_hooks @ [ hook ]

let set_on_batch_end t hook = t.on_batch_end <- hook

let now t = Sim.Engine.now t.engine

let tracef t fmt = Sim.Trace.record t.trace ~time:(now t) ~category:"prime" fmt

let silent t = (not t.running) || t.misbehavior = Crash_silent

let send t ~dst msg = if not (silent t) then t.transport.send ~dst msg

let broadcast t msg = if not (silent t) then t.transport.broadcast msg

(* --- signing and verification ------------------------------------------ *)

let count_sign t =
  Sim.Stats.Counter.incr t.counters "crypto.sign"

let count_check t = function
  | `Hit ->
      Sim.Stats.Counter.incr t.counters "crypto.cache_hit";
      true
  | `Valid ->
      Sim.Stats.Counter.incr t.counters "crypto.verify";
      true
  | `Invalid ->
      Sim.Stats.Counter.incr t.counters "crypto.verify";
      false

(* Every outbound protocol message is signed directly when it is sent. *)
let sign t body =
  count_sign t;
  Crypto.Signature.sign t.keypair body

let verify_from t ~rep body s =
  count_check t
    (Sigcache.check t.sig_cache t.keystore ~signer:(Msg.replica_identity rep) body s)

(* Client update signatures go through the same cache: the identical
   (client, body, tag) triple arrives via f+1 direct sends, n po-request
   relays and every retransmission thereof. *)
let verify_update t (u : Msg.Update.t) =
  count_check t
    (Sigcache.check t.sig_cache t.keystore ~signer:u.Msg.Update.client
       (Msg.Update.encode u) u.Msg.Update.signature)

(* Summaries are re-verified inside every matrix; the cache collapses
   each re-check of an already-seen summary to a hash-table probe. *)
let verify_summary t (s : Msg.summary) =
  verify_from t ~rep:s.Msg.sum_rep (Msg.encode_summary s) s.Msg.sum_sig

(* --- summaries --------------------------------------------------------- *)

let current_summary t =
  let aru = Preorder.aru t.preorder in
  let body = Msg.encode_summary_body ~sum_rep:t.id ~aru in
  { Msg.sum_rep = t.id; aru = Array.copy aru; sum_sig = sign t body }

let aru_sum a = Array.fold_left ( + ) 0 a

let emit_summary ?(arm_tat = true) t =
  let s = current_summary t in
  ignore (Preorder.receive_summary t.preorder s);
  t.last_summary_time <- now t;
  (* Turnaround-time deadlines are armed only for summaries carrying new
     information: a periodic refresh of an unchanged vector does not force
     the leader to produce a new pre-prepare, so timing it would create
     false suspicion. *)
  if arm_tat then
    t.tat_pending <- { sent_at = now t; sent_sum = aru_sum s.Msg.aru } :: t.tat_pending;
  Sim.Stats.Counter.incr t.counters "summary.sent";
  broadcast t (Msg.Po_summary s)

(* Coalescing delay of event-driven emissions. A client's f + 1 target
   replicas introduce its update microseconds apart; waiting this long
   lets one summary (and one pre-prepare) cover both introductions. *)
let emit_delay = 0.001

(* One summary, [emit_delay] after the vector advanced and at least
   [summary_period] after the previous one. *)
let schedule_summary t =
  if t.running && t.summary_due = None then begin
    let time =
      Float.max (now t +. emit_delay) (t.last_summary_time +. Config.summary_period)
    in
    t.summary_due <-
      Some
        (Sim.Engine.schedule_at t.engine ~time (fun () ->
             t.summary_due <- None;
             if (not (silent t)) && Preorder.dirty t.preorder then begin
               Preorder.clear_dirty t.preorder;
               emit_summary t
             end))
  end

(* --- client updates and preordering -------------------------------------- *)

let reply_to_client t ~exec_seq (u : Msg.Update.t) =
  if silent t then ()
  else
  let body =
    Msg.encode_client_reply ~rep:t.id ~client:u.Msg.Update.client
      ~client_seq:u.Msg.Update.client_seq ~exec_seq
  in
  t.transport.reply_to_client ~client:u.Msg.Update.client
    (Msg.Client_reply
       {
         crep_rep = t.id;
         crep_client = u.Msg.Update.client;
         crep_client_seq = u.Msg.Update.client_seq;
         crep_exec_seq = exec_seq;
         crep_sig = sign t body;
       })

let handle_client_update t (u : Msg.Update.t) =
  if not t.origin_synced then
    (* Just recovered: do not assign preorder sequences until we have
       re-based our own sequence above anything used before the wipe.
       Clients retransmit, so dropping is safe. *)
    Sim.Stats.Counter.incr t.counters "update.deferred_unsynced"
  else if not (verify_update t u) then
    Sim.Stats.Counter.incr t.counters "update.bad_sig"
  else if Preorder.seen_update t.preorder u then begin
    Sim.Stats.Counter.incr t.counters "update.duplicate";
    (* Reply cache: a retransmission means the client may have lost our
       reply (e.g. its session failed over while we executed). *)
    match Hashtbl.find_opt t.executed_clients (Msg.Update.key u) with
    | Some exec_seq -> reply_to_client t ~exec_seq u
    | None -> ()
  end
  else begin
    Obs.Registry.mark Obs.Registry.default ~trace:u.Msg.Update.op
      ~stage:Obs.Registry.stage_accept ~time:(now t);
    let po_seq = Preorder.assign t.preorder u in
    Sim.Stats.Counter.incr t.counters "update.accepted";
    let po_sig = sign t (Msg.encode_po_request ~origin:t.id ~po_seq u) in
    broadcast t (Msg.Po_request { origin = t.id; po_seq; update = u; po_sig })
  end

let handle_po_request t ~origin ~po_seq update po_sig =
  let body = Msg.encode_po_request ~origin ~po_seq update in
  if not (verify_from t ~rep:origin body po_sig) then
    Sim.Stats.Counter.incr t.counters "po_request.bad_sig"
  else if not (verify_update t update) then
    Sim.Stats.Counter.incr t.counters "po_request.bad_update_sig"
  else
    let send_ack digest =
      let ack_sig = sign t (Msg.encode_po_ack ~acker:t.id ~origin ~po_seq ~digest) in
      broadcast t
        (Msg.Po_ack
           { acker = t.id; ack_origin = origin; ack_po_seq = po_seq; ack_digest = digest; ack_sig })
    in
    match Preorder.receive_request t.preorder ~origin ~po_seq update with
    | `Conflict ->
        Sim.Stats.Counter.incr t.counters "po_request.conflict";
        tracef t "replica %d: conflicting po-request from %d at %d" t.id origin po_seq
    | `Already_acked digest ->
        (* A retransmitted request means someone is still missing acks:
           re-broadcast ours so recovering replicas can certify. *)
        send_ack digest
    | `Ack digest -> send_ack digest

let handle_po_ack t ~acker ~origin ~po_seq ~digest ack_sig =
  let body = Msg.encode_po_ack ~acker ~origin ~po_seq ~digest in
  if verify_from t ~rep:acker body ack_sig then
    Preorder.receive_ack t.preorder ~acker ~origin ~po_seq ~digest
  else Sim.Stats.Counter.incr t.counters "po_ack.bad_sig"

(* After a proactive recovery, re-base our preorder sequence above
   anything we may have used before the wipe: peers' summaries tell us
   how far our old incarnation got. The margin covers slots that were
   assigned but never certified. *)
let reset_margin = 100

let maybe_rebase_origin t (s : Msg.summary) =
  if (not t.origin_synced) && s.Msg.sum_rep <> t.id then begin
    (* Collect a quorum of reports before choosing the restart point:
       individual reporters (other recently-recovered replicas, or up to
       f byzantine ones) may report a stale view of our column. *)
    Hashtbl.replace t.rebase_reports s.Msg.sum_rep s.Msg.aru.(t.id);
    if Hashtbl.length t.rebase_reports >= t.config.Config.quorum then begin
      let known = Hashtbl.fold (fun _ v acc -> max v acc) t.rebase_reports 0 in
      let known = max known (Preorder.floor_of t.preorder ~origin:t.id) in
      let new_start = known + reset_margin in
      t.origin_synced <- true;
      Hashtbl.reset t.rebase_reports;
      Preorder.begin_reset t.preorder ~new_start;
      let body = Msg.encode_origin_reset ~rep:t.id ~new_start in
      let or_sig = sign t body in
      Hashtbl.replace t.stored_resets t.id (new_start, or_sig);
      Sim.Stats.Counter.incr t.counters "origin_reset.sent";
      tracef t "replica %d re-bases its preorder sequence at %d after recovery" t.id new_start;
      broadcast t (Msg.Origin_reset { or_rep = t.id; or_new_start = new_start; or_sig })
    end
  end

(* --- execution -------------------------------------------------------------- *)

(* A batch end. At a settled point, the first one inside a new
   [checkpoint_interval] window moves the mark, releasing what lies below
   the previous one; then the batch-end observer runs, told whether the
   mark moved. *)
let settled_batch_end t =
  if t.cursors_settled then begin
    let window = Order.exec_seq t.order / t.config.Config.checkpoint_interval in
    let checkpoint = window > t.mark_window in
    if checkpoint then begin
      (match t.mark with
      | Some (next_exec_pp, cursor) ->
          Order.release_below t.order next_exec_pp;
          Preorder.release t.preorder ~cursor
      | None -> ());
      t.mark <- Some (Order.next_exec_pp t.order, Order.exec_cursor t.order);
      t.mark_window <- window
    end;
    t.on_batch_end ~checkpoint
  end

let request_missing t missing =
  List.iter
    (fun { Order.miss_origin; miss_po_seq } ->
      let key = (miss_origin, miss_po_seq) in
      if not (Hashtbl.mem t.outstanding_recon key) then begin
        Hashtbl.replace t.outstanding_recon key (now t);
        Sim.Stats.Counter.incr t.counters "recon.requested";
        broadcast t
          (Msg.Recon_request { rr_rep = t.id; rr_origin = miss_origin; rr_po_seq = miss_po_seq })
      end)
    missing

let execute_ready t =
  if not t.awaiting_app_transfer then begin
    let update_for ~origin ~po_seq = Preorder.update_for t.preorder ~origin ~po_seq in
    let floor_for ~origin = Preorder.floor_of t.preorder ~origin in
    let executed, missing = Order.try_execute t.order ~update_for ~floor_for in
    List.iter
      (fun (exec_seq, _origin, _po_seq, u) ->
        Hashtbl.remove t.outstanding_recon (_origin, _po_seq);
        Hashtbl.replace t.exec_log exec_seq u;
        Hashtbl.remove t.exec_log (exec_seq - t.config.Config.log_retention);
        (* Client-level dedup: the same supervisory command introduced by
           several origins executes only once against the application. *)
        if not (Hashtbl.mem t.executed_clients (Msg.Update.key u)) then begin
          Hashtbl.replace t.executed_clients (Msg.Update.key u) exec_seq;
          Sim.Stats.Counter.incr t.counters "executed";
          Obs.Registry.mark Obs.Registry.default ~trace:u.Msg.Update.op
            ~stage:Obs.Registry.stage_execute ~time:(now t);
          t.app.apply ~exec_seq u;
          List.iter (fun h -> h ~exec_seq u) t.on_execute_hooks;
          reply_to_client t ~exec_seq u
        end
        else Sim.Stats.Counter.incr t.counters "executed.duplicate_client_seq")
      executed;
    if executed <> [] then settled_batch_end t;
    if missing <> [] then request_missing t missing
  end

(* --- ordering ----------------------------------------------------------------- *)

(* The row a censoring leader leaves out of its proposals. *)
let censored t row =
  match t.misbehavior with
  | Censor_origin o -> o = row && o <> t.id
  | Honest | Crash_silent | Slow_leader _ | Equivocate -> false

let matrix_for_proposal t =
  let my_summary = current_summary t in
  let m = Preorder.matrix t.preorder ~my_summary in
  Array.iteri (fun row _ -> if censored t row then m.(row) <- None) m;
  m

let matrix_valid t (m : Msg.matrix) =
  Array.for_all (function None -> true | Some s -> verify_summary t s) m

let broadcast_commit t ~view ~pp_seq ~digest =
  let com_sig = sign t (Msg.encode_commit ~rep:t.id ~view ~pp_seq ~digest) in
  broadcast t
    (Msg.Commit
       { com_rep = t.id; com_view = view; com_seq = pp_seq; com_digest = digest; com_sig });
  (* Also retains our own signature for commit-certificate serving. *)
  if Order.add_commit t.order ~rep:t.id ~view ~pp_seq ~digest com_sig then execute_ready t

let broadcast_prepare t ~view ~pp_seq ~digest =
  let prep_sig = sign t (Msg.encode_prepare ~rep:t.id ~view ~pp_seq ~digest) in
  broadcast t
    (Msg.Prepare
       { prep_rep = t.id; prep_view = view; prep_seq = pp_seq; prep_digest = digest; prep_sig });
  (* Our own prepare may complete the quorum (e.g. when ours is the last
     to be counted locally). *)
  if Order.add_prepare t.order ~rep:t.id ~view ~pp_seq ~digest then
    broadcast_commit t ~view ~pp_seq ~digest

let note_tat_covered t (m : Msg.matrix) =
  (match m.(t.id) with
  | Some s ->
      let covered = aru_sum s.Msg.aru in
      t.tat_pending <- List.filter (fun p -> p.sent_sum > covered) t.tat_pending
  | None -> ());
  (* Freshness deadlines satisfied by this matrix. Covering the armed
     announcement clears its deadline; if fresher information is already
     waiting, a new deadline is armed for it from now — so a leader with
     a bounded lag is fine, while persistent censorship still fires
     within one allowance. *)
  Array.iteri
    (fun origin entry ->
      match (entry, Hashtbl.find_opt t.origin_freshness origin) with
      | Some s, Some f when aru_sum s.Msg.aru >= f.armed_sum ->
          if f.best_sum > aru_sum s.Msg.aru then begin
            f.armed_sum <- f.best_sum;
            f.cover_deadline <- Some (now t +. t.config.Config.tat_allowance)
          end
          else f.cover_deadline <- None
      | _ -> ())
    m

(* Would [matrix_for_proposal] differ from my last proposal? Decided on
   unsigned state: my own vector, and each stored summary by identity (a
   stored summary is replaced only by a strictly fresher one). So an
   unchanged proposal costs no signature. *)
let proposal_changed t =
  let last = t.last_pp_matrix in
  let changed = ref (Array.length last = 0) in
  for row = 0 to Array.length last - 1 do
    if not !changed then
      changed :=
        if row = t.id then
          match last.(row) with
          | Some s -> not (Preorder.aru_equals t.preorder s.Msg.aru)
          | None -> true
        else
          let now_row = if censored t row then None else Preorder.stored_summary t.preorder row in
          match (last.(row), now_row) with
          | None, None -> false
          | Some a, Some b -> a != b
          | Some _, None | None, Some _ -> true
  done;
  !changed

let note_proposed t (m : Msg.matrix) =
  t.last_pp_time <- now t;
  t.change_waiting <- false;
  for origin = 0 to t.config.Config.n - 1 do
    t.proposed_eligible.(origin) <- Preorder.eligible_up_to t.config m ~origin
  done

(* A new view's leader, or a wiped replica, has proposed nothing yet. *)
let forget_proposal t =
  t.last_pp_matrix <- [||];
  Array.fill t.proposed_eligible 0 t.config.Config.n 0;
  t.change_waiting <- false

(* The sequence of my next proposal: never below the execution point,
   nor one that already has a pre-prepare here. A leader that restarted
   wiped in its own view counts from 1 again; once catchup has shown it
   what is executed and its peers have relayed what they accepted, it
   proposes past both at once. Re-proposing used sequences one per
   emission would stall ordering until it had counted past them. *)
let fresh_pp_seq t =
  let s = ref (max t.next_pp_seq (Order.next_exec_pp t.order)) in
  while !s <= Order.max_seen_pp t.order && Order.has_pre_prepare t.order !s do
    incr s
  done;
  !s

(* On the tick, a change that advances no eligibility waits one period
   first: it is usually a peer's summary or my own vector running a few
   milliseconds ahead of the quorum, and proposing it would hold back the
   pre-prepare that the quorum's summaries are about to make useful.
   Turnaround and freshness coverage still come within two periods. *)
let rec emit_pre_prepare ?delay_broadcast ?(tick = false) t =
  let changed = proposal_changed t in
  if tick && changed && not t.change_waiting then t.change_waiting <- true
  else if changed then begin
    let matrix = matrix_for_proposal t in
    t.last_pp_matrix <- matrix;
    note_proposed t matrix;
    let pp_seq = fresh_pp_seq t in
    t.next_pp_seq <- pp_seq + 1;
    let view = t.view in
    let body = Msg.encode_pre_prepare ~view ~pp_seq matrix in
    let pp_sig = sign t body in
    let send () =
      if t.view = view && not (silent t) then begin
        Sim.Stats.Counter.incr t.counters "pre_prepare.sent";
        broadcast t (Msg.Pre_prepare { pp_view = view; pp_seq; pp_matrix = matrix; pp_sig });
        (* The leader is a participant too: accept our own pre-prepare. *)
        handle_pre_prepare t ~pp_view:view ~pp_seq ~matrix pp_sig
      end
    in
    match delay_broadcast with
    | None -> send ()
    | Some extra ->
        (* A lagging leader proposes *stale* information: the matrix was
           captured now but only reaches the wire [extra] later, so every
           summary's coverage — and thus every update's ordering — is
           delayed by [extra]. *)
        ignore (Sim.Engine.schedule t.engine ~delay:extra send)
  end

and leader_tick ?tick t =
  if is_leader t && not (silent t) then
    match t.misbehavior with
    | Slow_leader extra -> emit_pre_prepare ~delay_broadcast:extra ?tick t
    | Honest | Censor_origin _ -> emit_pre_prepare ?tick t
    | Equivocate -> emit_equivocation t
    | Crash_silent -> ()

(* A fully Byzantine leader with its signing key: send one pre-prepare to
   half the replicas and a conflicting one to the other half. Safety must
   hold regardless (neither variant can gather a prepare quorum), at the
   cost of liveness until the suspect-leader protocol evicts it. *)
and emit_equivocation t =
  let matrix_a = matrix_for_proposal t in
  note_proposed t matrix_a;
  let matrix_b = Array.copy matrix_a in
  (* The conflicting variant hides one honest summary. *)
  let victim = (t.id + 1) mod t.config.Config.n in
  matrix_b.(victim) <- None;
  let pp_seq = t.next_pp_seq in
  t.next_pp_seq <- t.next_pp_seq + 1;
  let view = t.view in
  let msg_of matrix =
    let body = Msg.encode_pre_prepare ~view ~pp_seq matrix in
    Msg.Pre_prepare { pp_view = view; pp_seq; pp_matrix = matrix; pp_sig = sign t body }
  in
  let a = msg_of matrix_a and b = msg_of matrix_b in
  Sim.Stats.Counter.incr t.counters "pre_prepare.equivocated";
  for dst = 0 to t.config.Config.n - 1 do
    if dst <> t.id then send t ~dst (if dst mod 2 = 0 then a else b)
  done

(* One pre-prepare, [emit_delay] after the leader's would-be matrix
   advanced some origin's eligibility and at least [delta_pp] after the
   previous one. It goes through [leader_tick], so misbehaviour knobs
   apply as on the tick. *)
and schedule_pre_prepare t =
  let time = Float.max (now t +. emit_delay) (t.last_pp_time +. Config.delta_pp) in
  t.pp_due <-
    Some
      (Sim.Engine.schedule_at t.engine ~time (fun () ->
           t.pp_due <- None;
           leader_tick t))

and check_eligibility t =
  if
    t.pp_due = None && is_leader t && (not (silent t))
    && Preorder.advances t.preorder ~eligible:t.proposed_eligible
  then schedule_pre_prepare t

and store_summary t s =
  maybe_rebase_origin t s;
  if Preorder.receive_summary t.preorder s then check_eligibility t

and handle_pre_prepare t ~pp_view ~pp_seq ~matrix pp_sig =
  let leader = Config.leader_of_view t.config pp_view in
  let body = Msg.encode_pre_prepare ~view:pp_view ~pp_seq matrix in
  if not (verify_from t ~rep:leader body pp_sig) then
    Sim.Stats.Counter.incr t.counters "pre_prepare.bad_sig"
  else if pp_view < t.view then Sim.Stats.Counter.incr t.counters "pre_prepare.stale_view"
  else if not (matrix_valid t matrix) then
    Sim.Stats.Counter.incr t.counters "pre_prepare.bad_matrix"
  else begin
    if pp_view > t.view then begin
      (* A recovering or partitioned replica adopts the established view. *)
      tracef t "replica %d adopts view %d from pre-prepare" t.id pp_view;
      enter_view t pp_view ~report:false
    end;
    (* A verified pre-prepare from the current view's leader is proof the
       view works: stop retransmitting our view-change report. *)
    if pp_view = t.view then t.view_live <- true;
    (* Learn peers' summaries from the matrix: keeps followers' matrices
       converging even when individual summary broadcasts were lost. *)
    Array.iter (function Some s -> store_summary t s | None -> ()) matrix;
    note_tat_covered t matrix;
    match Order.accept_pre_prepare t.order ~now:(now t) ~view:pp_view ~pp_seq ~matrix ~pp_sig with
    | `Accept digest ->
        (* Early commits may have completed the quorum on acceptance. *)
        let ordered_early = Order.is_ordered t.order pp_seq in
        broadcast_prepare t ~view:pp_view ~pp_seq ~digest;
        if ordered_early then begin
          Sim.Stats.Counter.incr t.counters "ordered";
          execute_ready t
        end
    | `Conflicting_leader ->
        Sim.Stats.Counter.incr t.counters "pre_prepare.equivocation";
        suspect_leader t pp_view
    | `Duplicate | `Already_ordered | `Stale -> ()
  end

and handle_prepare t ~rep ~view ~pp_seq ~digest sig_ =
  let body = Msg.encode_prepare ~rep ~view ~pp_seq ~digest in
  if verify_from t ~rep body sig_ then begin
    if Order.add_prepare t.order ~rep ~view ~pp_seq ~digest then
      broadcast_commit t ~view ~pp_seq ~digest
  end
  else Sim.Stats.Counter.incr t.counters "prepare.bad_sig"

and handle_commit t ~rep ~view ~pp_seq ~digest sig_ =
  let body = Msg.encode_commit ~rep ~view ~pp_seq ~digest in
  if verify_from t ~rep body sig_ then begin
    if Order.add_commit t.order ~rep ~view ~pp_seq ~digest sig_ then begin
      Sim.Stats.Counter.incr t.counters "ordered";
      execute_ready t
    end
  end
  else Sim.Stats.Counter.incr t.counters "commit.bad_sig"

(* --- suspect-leader and view change ---------------------------------------------- *)

and suspect_leader t view =
  if view >= t.view && t.suspected_view < view then begin
    t.suspected_view <- view;
    Sim.Stats.Counter.incr t.counters "suspect.sent";
    if Obs.Flight.recording Obs.Flight.default then
      Obs.Flight.record Obs.Flight.default ~time:(now t) ~severity:Obs.Flight.Warn
        ~subsystem:"prime" ~kind:"leader.suspect"
        (Printf.sprintf "replica %d suspects leader of view %d" t.id view);
    tracef t "replica %d suspects leader of view %d" t.id view;
    let body = Msg.encode_suspect ~rep:t.id ~view in
    broadcast t (Msg.Suspect_leader { sus_rep = t.id; sus_view = view; sus_sig = sign t body });
    note_suspect t ~rep:t.id ~view
  end

and note_suspect t ~rep ~view =
  let before = Option.value (Hashtbl.find_opt t.suspects view) ~default:0 in
  let suspects = Voters.add t.config before rep in
  if suspects <> before then Hashtbl.replace t.suspects view suspects;
  if view >= t.view && Voters.count suspects >= t.config.Config.quorum then begin
    tracef t "replica %d: view %d has a suspicion quorum, moving to view %d" t.id view (view + 1);
    enter_view t (view + 1) ~report:true
  end

and enter_view t view ~report =
  if view > t.view then begin
    t.view <- view;
    t.leader_active <- false;
    t.view_live <- false;
    t.my_vc_report <- None;
    t.tat_pending <- [];
    (* Give the new leader a clean slate of deadlines, but remember which
       sums we already know: re-announcements (periodic refreshes) of old
       information must not arm deadlines against the new leader. *)
    Hashtbl.iter (fun _ f -> f.cover_deadline <- None) t.origin_freshness;
    Sim.Stats.Counter.incr t.counters "view_change";
    if Obs.Flight.recording Obs.Flight.default then
      Obs.Flight.record Obs.Flight.default ~time:(now t) ~severity:Obs.Flight.Warn
        ~subsystem:"prime" ~kind:"view.change"
        (Printf.sprintf "replica %d enters view %d" t.id view);
    if report then begin
      let prepared = Order.prepared_certs t.order in
      let max_ordered = Order.max_executed t.order in
      let body =
        Msg.encode_vc_report ~rep:t.id ~view ~max_ordered ~prepared
      in
      let msg =
        Msg.Vc_report
          { vc_rep = t.id; vc_view = view; vc_max_ordered = max_ordered;
            vc_prepared = prepared; vc_sig = sign t body }
      in
      t.my_vc_report <- Some msg;
      broadcast t msg;
      handle_vc_report t ~rep:t.id ~view ~max_ordered ~prepared (sign t body)
    end
  end

and handle_vc_report t ~rep ~view ~max_ordered ~prepared sig_ =
  let body = Msg.encode_vc_report ~rep ~view ~max_ordered ~prepared in
  if not (verify_from t ~rep body sig_) then
    Sim.Stats.Counter.incr t.counters "vc.bad_sig"
  else if view < t.view then ()
  else begin
    if view > t.view then enter_view t view ~report:true;
    let tbl =
      match Hashtbl.find_opt t.vc_reports view with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.vc_reports view tbl;
          tbl
    in
    Hashtbl.replace tbl rep
      (Msg.Vc_report { vc_rep = rep; vc_view = view; vc_max_ordered = max_ordered;
                       vc_prepared = prepared; vc_sig = sig_ });
    maybe_activate_leader t view
  end

and maybe_activate_leader t view =
  if
    view = t.view
    && t.id = Config.leader_of_view t.config view
    && not t.leader_active
  then
    match Hashtbl.find_opt t.vc_reports view with
    | Some tbl when Hashtbl.length tbl >= t.config.Config.quorum ->
        t.leader_active <- true;
        t.view_live <- true;
        Sim.Stats.Counter.incr t.counters "leader.activated";
        if Obs.Flight.recording Obs.Flight.default then
          Obs.Flight.record Obs.Flight.default ~time:(now t) ~severity:Obs.Flight.Info
            ~subsystem:"prime" ~kind:"leader.activated"
            (Printf.sprintf "replica %d leads view %d" t.id view);
        tracef t "replica %d is the active leader of view %d" t.id view;
        (* Re-propose every prepared certificate above the highest ordered
           point any reporter disclosed, then continue fresh. *)
        let reports = Hashtbl.fold (fun _ m acc -> m :: acc) tbl [] in
        let max_ordered =
          List.fold_left
            (fun acc m ->
              match m with Msg.Vc_report { vc_max_ordered; _ } -> max acc vc_max_ordered | _ -> acc)
            (Order.max_executed t.order) reports
        in
        let to_repropose = Hashtbl.create 8 in
        List.iter
          (fun m ->
            match m with
            | Msg.Vc_report { vc_prepared; _ } ->
                List.iter
                  (fun (c : Msg.prepared_cert) ->
                    if c.Msg.pc_seq > max_ordered then
                      match Hashtbl.find_opt to_repropose c.Msg.pc_seq with
                      | Some (existing : Msg.prepared_cert) when existing.Msg.pc_view >= c.Msg.pc_view -> ()
                      | _ -> Hashtbl.replace to_repropose c.Msg.pc_seq c)
                  vc_prepared
            | _ -> ())
          reports;
        let reproposals =
          Hashtbl.fold (fun _ c acc -> c :: acc) to_repropose []
          |> List.sort (fun a b -> compare a.Msg.pc_seq b.Msg.pc_seq)
        in
        let highest =
          List.fold_left (fun acc c -> max acc c.Msg.pc_seq) max_ordered reproposals
        in
        t.next_pp_seq <- max (highest + 1) (Order.max_seen_pp t.order + 1);
        forget_proposal t;
        List.iter
          (fun (c : Msg.prepared_cert) ->
            let body = Msg.encode_pre_prepare ~view ~pp_seq:c.Msg.pc_seq c.Msg.pc_matrix in
            let pp_sig = sign t body in
            broadcast t
              (Msg.Pre_prepare
                 { pp_view = view; pp_seq = c.Msg.pc_seq; pp_matrix = c.Msg.pc_matrix;
                   pp_sig });
            handle_pre_prepare t ~pp_view:view ~pp_seq:c.Msg.pc_seq ~matrix:c.Msg.pc_matrix
              pp_sig)
          reproposals;
        (* Gap filling: sequences between [max_ordered] and [next_pp_seq]
           covered by neither a re-proposal nor a local ordering are
           pre-prepares of the old view that never gathered a prepare
           quorum anywhere — the execution walk is strictly sequential,
           so leaving them unproposed wedges every replica forever (the
           old leader's retransmissions are now stale-view). Re-proposing
           fresh content there is safe: had the sequence been ordered
           anywhere, a quorum of reports necessarily includes either a
           prepared certificate for it or a reporter whose max_ordered
           covers it (quorum intersection). *)
        let fill_matrix = ref None in
        for pp_seq = max_ordered + 1 to t.next_pp_seq - 1 do
          if (not (Hashtbl.mem to_repropose pp_seq)) && not (Order.is_ordered t.order pp_seq)
          then begin
            let matrix =
              match !fill_matrix with
              | Some m -> m
              | None ->
                  let m = matrix_for_proposal t in
                  fill_matrix := Some m;
                  m
            in
            Sim.Stats.Counter.incr t.counters "pre_prepare.gap_fill";
            let body = Msg.encode_pre_prepare ~view ~pp_seq matrix in
            let pp_sig = sign t body in
            broadcast t
              (Msg.Pre_prepare { pp_view = view; pp_seq; pp_matrix = matrix; pp_sig });
            handle_pre_prepare t ~pp_view:view ~pp_seq ~matrix pp_sig
          end
        done;
        check_eligibility t
    | Some _ | None -> ()

let handle_po_summary t (s : Msg.summary) =
  if verify_summary t s then begin
    store_summary t s;
    (* Freshness bookkeeping for censorship detection: once I know origin
       r reached sum S, the leader must cover S within the allowance.
       A re-announcement of an already-known sum must not re-arm the
       deadline (periodic refreshes would otherwise cause false alarms
       whenever the leader has nothing new to propose). *)
    let sum = aru_sum s.Msg.aru in
    (match Hashtbl.find_opt t.origin_freshness s.Msg.sum_rep with
    | Some f when sum > f.best_sum ->
        f.best_sum <- sum;
        (* Each announcement must be covered within the allowance of the
           moment we learned it; while one deadline is pending, later
           announcements queue behind it (they get their own deadline when
           the pending one is covered). *)
        if f.cover_deadline = None then begin
          f.armed_sum <- sum;
          f.cover_deadline <- Some (now t +. t.config.Config.tat_allowance)
        end
    | Some _ -> ()
    | None ->
        Hashtbl.replace t.origin_freshness s.Msg.sum_rep
          {
            best_sum = sum;
            armed_sum = sum;
            cover_deadline = Some (now t +. t.config.Config.tat_allowance);
          })
  end
  else Sim.Stats.Counter.incr t.counters "summary.bad_sig"

(* Suspect evaluation: any summary of mine that the leader failed to cover
   within the allowance, or any origin whose known-fresh summary the
   leader keeps omitting, triggers suspicion. *)
let tat_check t =
  let deadline_passed = ref false in
  List.iter
    (fun p ->
      if now t -. p.sent_at > t.config.Config.tat_allowance then deadline_passed := true)
    t.tat_pending;
  Hashtbl.iter
    (fun _origin f ->
      match f.cover_deadline with
      | Some deadline when now t > deadline -> deadline_passed := true
      | Some _ | None -> ())
    t.origin_freshness;
  if !deadline_passed then suspect_leader t t.view

(* --- reconciliation / catchup -------------------------------------------------------- *)

let apply_origin_reset t ~origin ~new_start or_sig =
  let body = Msg.encode_origin_reset ~rep:origin ~new_start in
  if verify_from t ~rep:origin body or_sig then begin
    if Preorder.apply_origin_reset t.preorder ~origin ~new_start then begin
      Hashtbl.replace t.stored_resets origin (new_start, or_sig);
      Sim.Stats.Counter.incr t.counters "origin_reset.applied";
      (* Requests for voided slots are moot now. *)
      Hashtbl.iter
        (fun (o, s) _ ->
          if o = origin && s < new_start then Hashtbl.remove t.outstanding_recon (o, s))
        (Hashtbl.copy t.outstanding_recon);
      execute_ready t
    end
  end
  else Sim.Stats.Counter.incr t.counters "origin_reset.bad_sig"

let handle_recon_request t ~rr_rep ~rr_origin ~rr_po_seq =
  (* A request for a slot voided by an origin reset is answered with the
     stored (origin-signed) reset instead of a body. *)
  if rr_po_seq <= Preorder.floor_of t.preorder ~origin:rr_origin then begin
    match Hashtbl.find_opt t.stored_resets rr_origin with
    | Some (new_start, or_sig) ->
        send t ~dst:rr_rep
          (Msg.Origin_reset { or_rep = rr_origin; or_new_start = new_start; or_sig })
    | None -> ()
  end
  else
    match Preorder.update_for t.preorder ~origin:rr_origin ~po_seq:rr_po_seq with
    | Some u ->
        send t ~dst:rr_rep
          (Msg.Recon_reply { rp_rep = t.id; rp_origin = rr_origin; rp_po_seq = rr_po_seq; rp_update = u })
    | None -> ()

let handle_recon_reply t ~rp_origin ~rp_po_seq ~rp_update =
  if verify_update t rp_update then begin
    match Preorder.store_body t.preorder ~origin:rp_origin ~po_seq:rp_po_seq rp_update with
    | `Stored ->
        Hashtbl.remove t.outstanding_recon (rp_origin, rp_po_seq);
        execute_ready t
    | `Mismatch -> Sim.Stats.Counter.incr t.counters "recon.digest_mismatch"
  end

(* Clock slack for "at least one period since": consecutive ticks of a
   timer are one period apart up to float rounding. *)
let period_slack = 1e-9

(* Retransmission covers what the live path lost, so it sends only what
   has waited a full tick: an instance accepted at least one
   [reconcile_period] ago, a PO-request assigned before the previous tick.
   Anything younger is still in flight; early votes ([Order.add_prepare])
   mean a replica that saw the votes before the pre-prepare needs no
   relay either. *)
let reconcile_tick t =
  let horizon = now t -. Config.reconcile_period in
  Hashtbl.iter
    (fun (origin, po_seq) asked ->
      if asked < horizon then begin
        Hashtbl.replace t.outstanding_recon (origin, po_seq) (now t);
        broadcast t (Msg.Recon_request { rr_rep = t.id; rr_origin = origin; rr_po_seq = po_seq })
      end)
    t.outstanding_recon;
  (* Ordering-message retransmission: relay the (leader-signed)
     pre-prepare and our own prepare/commit for the oldest instances still
     blocking execution a full period after we accepted them, so replicas
     that missed them can complete the quorum. *)
  List.iter
    (fun (pp_seq, view, matrix, digest, pp_sig, prepared) ->
      if view = t.view then begin
        Sim.Stats.Counter.incr t.counters "order.retransmit";
        broadcast t (Msg.Pre_prepare { pp_view = view; pp_seq; pp_matrix = matrix; pp_sig });
        let prep_sig = sign t (Msg.encode_prepare ~rep:t.id ~view ~pp_seq ~digest) in
        broadcast t
          (Msg.Prepare
             { prep_rep = t.id; prep_view = view; prep_seq = pp_seq; prep_digest = digest;
               prep_sig });
        if prepared then begin
          let com_sig = sign t (Msg.encode_commit ~rep:t.id ~view ~pp_seq ~digest) in
          broadcast t
            (Msg.Commit
               { com_rep = t.id; com_view = view; com_seq = pp_seq; com_digest = digest;
                 com_sig })
        end
      end)
    (Order.stalled_instances t.order ~accepted_by:(horizon +. period_slack) ~limit:5);
  (* View-change liveness: suspicion and reports are sent once on the
     transition, so on a lossy network a dropped copy can leave the
     cluster split across views (or the new leader one report short of
     its activation quorum) forever. Retransmit both until the view
     demonstrably works. *)
  if t.suspected_view = t.view then begin
    Sim.Stats.Counter.incr t.counters "suspect.retransmit";
    let body = Msg.encode_suspect ~rep:t.id ~view:t.view in
    broadcast t
      (Msg.Suspect_leader { sus_rep = t.id; sus_view = t.view; sus_sig = sign t body })
  end;
  if not t.view_live then begin
    match t.my_vc_report with
    | Some msg ->
        Sim.Stats.Counter.incr t.counters "vc.retransmit";
        broadcast t msg
    | None -> ()
  end;
  (* Origin-side retransmission: rebroadcast our own PO-Requests that are
     not *executed* yet, once they were assigned before the previous tick.
     Resending until execution (not merely until our own certification)
     matters: we may hold a certificate while peers are still missing
     acknowledgements that were lost, and only a retransmitted request
     makes them re-ack. *)
  let my_floor = Preorder.floor_of t.preorder ~origin:t.id in
  let my_done = max (Order.executed_through t.order ~origin:t.id) my_floor in
  let limit = min t.po_assigned_by_last_tick (my_done + 20) (* a bounded window *) in
  t.po_assigned_by_last_tick <- Preorder.next_po_seq t.preorder;
  for po_seq = my_done + 1 to limit do
    match Preorder.update_for t.preorder ~origin:t.id ~po_seq with
    | Some u ->
        Sim.Stats.Counter.incr t.counters "po_request.retransmit";
        let po_sig = sign t (Msg.encode_po_request ~origin:t.id ~po_seq u) in
        broadcast t (Msg.Po_request { origin = t.id; po_seq; update = u; po_sig })
    | None -> ()
  done

(* Commit certificates are served in a bounded window per request: the
   requester re-probes once its cursor advances. *)
let catchup_cert_window = 8

let handle_catchup_request t ~cu_rep ~cu_from ~cu_next_pp =
  (* Serve commit certificates for ordered instances at or above the
     requester's ordering cursor. This is what re-drives ordering to
     completion after a heal: a replica that already ordered (and maybe
     executed) an instance never re-sends its commit, and the stragglers'
     own quorums can be permanently incompletable — the certificate is
     the proof they can no longer assemble from live traffic. *)
  if cu_next_pp >= 1 then begin
    let upper = min (Order.max_ordered_seen t.order) (cu_next_pp + catchup_cert_window - 1) in
    for pp_seq = cu_next_pp to upper do
      match Order.ordered_cert t.order pp_seq with
      | Some (oc_view, oc_matrix, oc_pp_sig, oc_commits) ->
          Sim.Stats.Counter.incr t.counters "order_cert.served";
          send t ~dst:cu_rep
            (Msg.Order_cert
               { oc_rep = t.id; oc_seq = pp_seq; oc_view; oc_matrix; oc_pp_sig; oc_commits })
      | None -> ()
    done
  end;
  let my_max = Order.exec_seq t.order in
  if cu_from <= my_max then begin
    let oldest_retained = max 1 (my_max - t.config.Config.log_retention + 1) in
    let reply ~entries ~behind =
      let next_exec_pp = Order.next_exec_pp t.order and cursor = Order.exec_cursor t.order in
      let content =
        Msg.encode_catchup_content ~upto:my_max ~behind_log:behind ~next_exec_pp ~cursor ~entries
      in
      send t ~dst:cu_rep
        (Msg.Catchup_reply
           {
             cr_rep = t.id;
             cr_entries = entries;
             cr_upto = my_max;
             cr_behind_log = behind;
             cr_next_exec_pp = next_exec_pp;
             cr_cursor = cursor;
             cr_sig = sign t (Msg.encode_catchup_reply ~rep:t.id content);
           })
    in
    if cu_from < oldest_retained then reply ~entries:[] ~behind:true
    else begin
      let entries = ref [] in
      for i = my_max downto cu_from do
        match Hashtbl.find_opt t.exec_log i with
        | Some u -> entries := (i, u) :: !entries
        | None -> ()
      done;
      reply ~entries:!entries ~behind:false
    end
  end

(* Add [rep]'s vote for [key]; the number of distinct voters so far. *)
let catchup_vote t key ~rep =
  let voters = Option.value (Hashtbl.find_opt t.catchup_votes key) ~default:[] in
  if List.mem rep voters then List.length voters
  else begin
    Hashtbl.replace t.catchup_votes key (rep :: voters);
    List.length voters + 1
  end

(* Catchup replies are only trusted from f + 1 distinct replicas, each
   reply signed by its sender: a single compromised replica cannot feed a
   recovering peer fabricated history, however often it repeats itself. *)
let handle_catchup_reply t ~cr_rep ~cr_entries ~cr_upto ~cr_behind_log ~cr_next_exec_pp
    ~cr_cursor ~cr_sig =
  if cr_upto > Order.exec_seq t.order && cr_rep >= 0 && cr_rep < t.config.Config.n then begin
    let content =
      Msg.encode_catchup_content ~upto:cr_upto ~behind_log:cr_behind_log
        ~next_exec_pp:cr_next_exec_pp ~cursor:cr_cursor ~entries:cr_entries
    in
    if not (verify_from t ~rep:cr_rep (Msg.encode_catchup_reply ~rep:cr_rep content) cr_sig)
    then Sim.Stats.Counter.incr t.counters "catchup.bad_sig"
    else if cr_behind_log then begin
      let count = catchup_vote t "behind" ~rep:cr_rep in
      if count >= t.config.Config.f + 1 && not t.awaiting_app_transfer then begin
        t.awaiting_app_transfer <- true;
        Hashtbl.reset t.catchup_votes;
        Sim.Stats.Counter.incr t.counters "catchup.app_transfer_needed";
        tracef t "replica %d: catchup impossible at replication level, signalling application"
          t.id;
        t.app.state_transfer_needed ()
      end
    end
    else begin
      let all_valid = List.for_all (fun (_, u) -> verify_update t u) cr_entries in
      if all_valid then begin
        let count = catchup_vote t ("entries:" ^ content) ~rep:cr_rep in
        if count >= t.config.Config.f + 1 then begin
          Hashtbl.reset t.catchup_votes;
          let applied = ref 0 in
          List.iter
            (fun (exec_seq, u) ->
              if exec_seq = Order.exec_seq t.order + 1 then begin
                incr applied;
                t.cursors_settled <- false;
                Hashtbl.replace t.exec_log exec_seq u;
                if not (Hashtbl.mem t.executed_clients (Msg.Update.key u)) then begin
                  Hashtbl.replace t.executed_clients (Msg.Update.key u) exec_seq;
                  t.app.apply ~exec_seq u;
                  List.iter (fun h -> h ~exec_seq u) t.on_execute_hooks
                end;
                Order.install_checkpoint t.order
                  ~next_exec_pp:(Order.next_exec_pp t.order)
                  ~exec_seq ~cursor:(Order.exec_cursor t.order)
              end)
            cr_entries;
          (* If the reply brought us fully current, adopt the responder's
             ordering cursors so normal execution resumes from here, and
             fast-forward the preorder floors to match: slots below the
             cursor are settled history this replica will never re-certify. *)
          if Order.exec_seq t.order = cr_upto then begin
            Order.install_checkpoint t.order ~next_exec_pp:cr_next_exec_pp
              ~exec_seq:cr_upto ~cursor:cr_cursor;
            Preorder.install_floors t.preorder ~cursor:cr_cursor;
            t.cursors_settled <- true;
            settled_batch_end t
          end;
          if !applied > 0 then Sim.Stats.Counter.incr ~by:!applied t.counters "catchup.applied"
        end
      end
    end
  end

(* Install a relayed commit certificate after verifying every
   constituent: the leader's pre-prepare authenticator over the matrix
   and a quorum of distinct commit authenticators over the derived
   digest. Nothing about the relayer is trusted. *)
let handle_order_cert t ~oc_seq ~oc_view ~oc_matrix ~oc_pp_sig ~oc_commits =
  if oc_seq >= Order.next_exec_pp t.order && not (Order.is_ordered t.order oc_seq) then begin
    let leader = Config.leader_of_view t.config oc_view in
    let pp_body = Msg.encode_pre_prepare ~view:oc_view ~pp_seq:oc_seq oc_matrix in
    if not (verify_from t ~rep:leader pp_body oc_pp_sig) then
      Sim.Stats.Counter.incr t.counters "order_cert.bad_pp_sig"
    else if not (matrix_valid t oc_matrix) then
      Sim.Stats.Counter.incr t.counters "order_cert.bad_matrix"
    else begin
      let digest = Msg.matrix_digest ~view:oc_view ~pp_seq:oc_seq oc_matrix in
      let voters = Hashtbl.create 8 in
      List.iter
        (fun (rep, auth) ->
          if rep >= 0 && rep < t.config.Config.n && not (Hashtbl.mem voters rep) then begin
            let body = Msg.encode_commit ~rep ~view:oc_view ~pp_seq:oc_seq ~digest in
            if verify_from t ~rep body auth then Hashtbl.replace voters rep auth
          end)
        oc_commits;
      if Hashtbl.length voters < t.config.Config.quorum then
        Sim.Stats.Counter.incr t.counters "order_cert.short_quorum"
      else begin
        (* Learn the matrix's summaries exactly as a pre-prepare would:
           eligibility derivation needs the preorder state converging. *)
        Array.iter (function Some s -> store_summary t s | None -> ()) oc_matrix;
        let commits = Hashtbl.fold (fun rep auth acc -> (rep, auth) :: acc) voters [] in
        if
          Order.install_cert t.order ~pp_seq:oc_seq ~view:oc_view ~matrix:oc_matrix ~digest
            ~pp_sig:oc_pp_sig ~commits
        then begin
          Sim.Stats.Counter.incr t.counters "order_cert.installed";
          execute_ready t
        end
      end
    end
  end

(* Do f + 1 peers' summaries certify, for some origin, an update past my
   execution cursor? *)
let peers_ahead t =
  let ahead = ref false and origin = ref 0 in
  while (not !ahead) && !origin < t.config.Config.n do
    ahead :=
      Preorder.peers_ahead t.preorder ~origin:!origin
        ~executed:(Order.executed_through t.order ~origin:!origin);
    incr origin
  done;
  !ahead

(* Probe when ordering has visibly moved past our execution point, or
   when peers' summaries showed updates past it at the previous tick and
   still do, with nothing executed in between. The second rule finds a
   replica that lost the last pre-prepares before the group went quiet:
   no later pre-prepare comes to tell it, and an update certified but
   not yet ordered elsewhere is ordered well within a tick. *)
let catchup_tick t =
  let next_exec_pp = Order.next_exec_pp t.order and ahead = peers_ahead t in
  let stuck = ahead && t.peers_ahead_at_tick && next_exec_pp = t.next_exec_pp_at_tick in
  t.peers_ahead_at_tick <- ahead;
  t.next_exec_pp_at_tick <- next_exec_pp;
  if
    (Order.max_seen_pp t.order > next_exec_pp + 2 || stuck)
    && not t.awaiting_app_transfer
  then begin
    Sim.Stats.Counter.incr t.counters "catchup.probe";
    broadcast t
      (Msg.Catchup_request
         {
           cu_rep = t.id;
           cu_from = Order.exec_seq t.order + 1;
           cu_next_pp = Order.next_exec_pp t.order;
         })
  end

(* After the application completed its own state transfer (or ground-truth
   rebuild), fast-forward the replication cursors to match. *)
let install_app_checkpoint t ~next_exec_pp ~exec_seq ~cursor ~client_seqs =
  Order.install_checkpoint t.order ~next_exec_pp ~exec_seq ~cursor;
  Preorder.install_floors t.preorder ~cursor;
  Hashtbl.reset t.executed_clients;
  (* Exec points for transferred entries are unknown; 0 marks "executed
     before my checkpoint" (reply-cache answers then carry 0 and do not
     contribute to the client's f+1 matching set). *)
  List.iter (fun key -> Hashtbl.replace t.executed_clients key 0) client_seqs;
  t.awaiting_app_transfer <- false;
  t.cursors_settled <- true;
  t.mark_window <- exec_seq / t.config.Config.checkpoint_interval;
  Sim.Stats.Counter.incr t.counters "app_checkpoint.installed"

let exec_point t = (Order.next_exec_pp t.order, Order.exec_seq t.order, Order.exec_cursor t.order)

let order_state t =
  let next_exec_pp, exec_seq, cursor = exec_point t in
  (next_exec_pp, exec_seq, cursor, Hashtbl.fold (fun key _ acc -> key :: acc) t.executed_clients [])

let retained_history t =
  ( Order.retained_executed t.order,
    Preorder.retained_executed t.preorder ~cursor:(Order.exec_cursor t.order) )

(* --- message dispatch ------------------------------------------------------------------ *)

(* A message about a released slot or instance: already executed and
   settled here, so it can neither change state nor need an answer. *)
let released t = function
  | Msg.Po_request { origin; po_seq; _ } -> Preorder.released t.preorder ~origin ~po_seq
  | Msg.Po_ack { ack_origin; ack_po_seq; _ } ->
      Preorder.released t.preorder ~origin:ack_origin ~po_seq:ack_po_seq
  | Msg.Recon_reply { rp_origin; rp_po_seq; _ } ->
      Preorder.released t.preorder ~origin:rp_origin ~po_seq:rp_po_seq
  | Msg.Pre_prepare { pp_seq = s; _ }
  | Msg.Prepare { prep_seq = s; _ }
  | Msg.Commit { com_seq = s; _ }
  | Msg.Order_cert { oc_seq = s; _ } ->
      Order.released t.order s
  | _ -> false

let handle_message t msg =
  if t.running then begin
    Sim.Stats.Counter.incr t.counters "msg.rx";
    if released t msg then Sim.Stats.Counter.incr t.counters "released.drop"
    else
    match msg with
    | Msg.Update_msg u -> handle_client_update t u
    | Msg.Po_request { origin; po_seq; update; po_sig } ->
        handle_po_request t ~origin ~po_seq update po_sig;
        execute_ready t
    | Msg.Po_ack { acker; ack_origin; ack_po_seq; ack_digest; ack_sig } ->
        handle_po_ack t ~acker ~origin:ack_origin ~po_seq:ack_po_seq ~digest:ack_digest ack_sig
    | Msg.Po_summary s -> handle_po_summary t s
    | Msg.Pre_prepare { pp_view; pp_seq; pp_matrix; pp_sig } ->
        handle_pre_prepare t ~pp_view ~pp_seq ~matrix:pp_matrix pp_sig
    | Msg.Prepare { prep_rep; prep_view; prep_seq; prep_digest; prep_sig } ->
        handle_prepare t ~rep:prep_rep ~view:prep_view ~pp_seq:prep_seq ~digest:prep_digest
          prep_sig
    | Msg.Commit { com_rep; com_view; com_seq; com_digest; com_sig } ->
        handle_commit t ~rep:com_rep ~view:com_view ~pp_seq:com_seq ~digest:com_digest com_sig
    | Msg.Suspect_leader { sus_rep; sus_view; sus_sig } ->
        let body = Msg.encode_suspect ~rep:sus_rep ~view:sus_view in
        if verify_from t ~rep:sus_rep body sus_sig then note_suspect t ~rep:sus_rep ~view:sus_view
    | Msg.Vc_report { vc_rep; vc_view; vc_max_ordered; vc_prepared; vc_sig } ->
        handle_vc_report t ~rep:vc_rep ~view:vc_view ~max_ordered:vc_max_ordered
          ~prepared:vc_prepared vc_sig
    | Msg.Origin_reset { or_rep; or_new_start; or_sig } ->
        apply_origin_reset t ~origin:or_rep ~new_start:or_new_start or_sig
    | Msg.Recon_request { rr_rep; rr_origin; rr_po_seq } ->
        handle_recon_request t ~rr_rep ~rr_origin ~rr_po_seq
    | Msg.Recon_reply { rp_origin; rp_po_seq; rp_update; _ } ->
        handle_recon_reply t ~rp_origin ~rp_po_seq ~rp_update
    | Msg.Order_cert { oc_seq; oc_view; oc_matrix; oc_pp_sig; oc_commits; oc_rep = _ } ->
        handle_order_cert t ~oc_seq ~oc_view ~oc_matrix ~oc_pp_sig ~oc_commits
    | Msg.Catchup_request { cu_rep; cu_from; cu_next_pp } ->
        handle_catchup_request t ~cu_rep ~cu_from ~cu_next_pp
    | Msg.Catchup_reply
        { cr_rep; cr_entries; cr_upto; cr_behind_log; cr_next_exec_pp; cr_cursor; cr_sig } ->
        handle_catchup_reply t ~cr_rep ~cr_entries ~cr_upto ~cr_behind_log ~cr_next_exec_pp
          ~cr_cursor ~cr_sig
    | Msg.Client_reply _ -> () (* replicas do not consume client replies *)
  end

(* Client updates enter through the replica a client session is attached
   to (in Spire, via the external Spines network). *)
let submit_update t u = if t.running then handle_client_update t u

(* --- lifecycle ----------------------------------------------------------------------------- *)

let start t =
  if t.running then invalid_arg "Replica.start: already running";
  t.running <- true;
  (* An advanced vector schedules my summary; for the leader it may also
     advance eligibility. *)
  Preorder.set_on_dirty t.preorder (fun () ->
      schedule_summary t;
      check_eligibility t);
  let summary_timer =
    Sim.Engine.every t.engine ~period:Config.summary_period (fun () ->
        if not (silent t) then begin
          (* Refresh periodically: a lost summary must not leave the
             leader's matrix stale forever once traffic quiesces. A vector
             that advanced while I was down or silent is scheduled here. *)
          if Preorder.dirty t.preorder then schedule_summary t
          else if
            aru_sum (Preorder.aru t.preorder) > 0
            && now t -. t.last_summary_time >= Config.summary_refresh_period
          then emit_summary ~arm_tat:false t
        end)
  in
  (* The tick covers what the event path does not: matrix changes that
     advance no eligibility (turnaround and freshness coverage). With no
     change to propose it sends nothing. It stands aside while a
     pre-prepare is scheduled or one went out less than [delta_pp] ago. *)
  let pp_timer =
    Sim.Engine.every t.engine ~period:Config.delta_pp (fun () ->
        if
          t.pp_due = None
          && now t -. t.last_pp_time >= Config.delta_pp -. period_slack
        then leader_tick ~tick:true t)
  in
  let tat_timer =
    Sim.Engine.every t.engine ~period:Config.tat_check_period (fun () ->
        if not (silent t) then tat_check t)
  in
  let recon_timer =
    Sim.Engine.every t.engine ~period:Config.reconcile_period (fun () ->
        if not (silent t) then reconcile_tick t)
  in
  let catchup_timer =
    Sim.Engine.every t.engine ~period:1.0 (fun () -> if not (silent t) then catchup_tick t)
  in
  t.timers <- [ summary_timer; pp_timer; tat_timer; recon_timer; catchup_timer ]

let cancel_due t =
  Option.iter (Sim.Engine.cancel t.engine) t.summary_due;
  Option.iter (Sim.Engine.cancel t.engine) t.pp_due;
  t.summary_due <- None;
  t.pp_due <- None

let shutdown t =
  if t.running then begin
    t.running <- false;
    List.iter (Sim.Engine.cancel_timer t.engine) t.timers;
    t.timers <- [];
    cancel_due t
  end

(* Proactive recovery: come back with protocol state wiped (the new
   diverse variant starts from a clean image) and let catchup / the
   application state transfer rebuild. The keypair survives (keys are
   re-provisioned by the recovery infrastructure). *)
let restart_clean t =
  if t.running then shutdown t;
  t.preorder <- Preorder.create t.config ~my_id:t.id;
  t.order <- Order.create t.config ~my_id:t.id;
  t.view <- 0;
  t.suspected_view <- -1;
  Hashtbl.reset t.suspects;
  Hashtbl.reset t.vc_reports;
  t.leader_active <- t.id = Config.leader_of_view t.config 0;
  t.view_live <- true;
  t.my_vc_report <- None;
  t.next_pp_seq <- 1;
  forget_proposal t;
  t.last_pp_time <- 0.0;
  t.tat_pending <- [];
  Hashtbl.reset t.origin_freshness;
  Hashtbl.reset t.executed_clients;
  Hashtbl.reset t.exec_log;
  t.awaiting_app_transfer <- false;
  t.peers_ahead_at_tick <- false;
  t.cursors_settled <- true;
  t.mark <- None;
  t.mark_window <- 0;
  Hashtbl.reset t.catchup_votes;
  Hashtbl.reset t.outstanding_recon;
  t.po_assigned_by_last_tick <- 0;
  Hashtbl.reset t.stored_resets;
  Hashtbl.reset t.rebase_reports;
  (* Forget cached verifications: they reference pre-wipe state. *)
  Sigcache.clear t.sig_cache;
  t.origin_synced <- false;
  t.misbehavior <- Honest;
  start t;
  (* Announce our (empty) vector right away: after a whole-system reset
     every replica is waiting for a quorum of peers' summaries to choose
     its new starting sequence. *)
  Preorder.force_dirty t.preorder
