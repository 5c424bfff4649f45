(* SCADA master application, bound to one Prime replica.

   The division of labour follows Section III-A: Prime orders updates;
   the master applies them to the application state, drives proxies and
   HMIs, and owns the application-level state transfer that Prime's
   catchup signals for. A transfer always moves a checkpoint: the
   rejoiner adopts the first root f + 1 distinct replicas vouch for, and
   persists it through its durable store. The master signs its outbound
   commands and display pushes with the replica's key so proxies and
   HMIs can hold every replica to the f + 1 agreement threshold. *)

type net = {
  broadcast_masters : Netbase.Packet.payload -> size:int -> unit; (* internal network *)
  send_endpoint : endpoint:string -> Netbase.Packet.payload -> size:int -> unit; (* external *)
  push_hmis : Netbase.Packet.payload -> size:int -> unit; (* external, every HMI at once *)
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  keypair : Crypto.Signature.keypair;
  config : Prime.Config.t;
  replica : Prime.Replica.t;
  state : State.t;
  net : net;
  mutable awaiting_transfer : bool;
  transfer_votes : (string, int list * Store.Checkpoint.t) Hashtbl.t;
      (* checkpoint root -> distinct authenticated voter ids, sample checkpoint *)
  mutable transfer_timer : Sim.Engine.timer option;
  counters : Sim.Stats.Counter.t;
  mutable on_apply : (exec_seq:int -> Op.t -> unit) list;
  durable : Durable.t;
}

let id t = Prime.Replica.id t.replica

let state t = t.state

let counters t = t.counters

let on_apply t f = t.on_apply <- f :: t.on_apply

let durable t = t.durable

let proxy_endpoint_for_breaker t breaker =
  let scenario = State.scenario t.state in
  List.find_map
    (fun (p : Plc.Power.plc_spec) ->
      if List.exists (String.equal breaker) p.Plc.Power.breaker_names then
        Some ("proxy-" ^ p.Plc.Power.plc_name)
      else None)
    scenario.Plc.Power.plcs

let sign t body = Crypto.Signature.sign t.keypair body

(* One display push per applied status or batch op that changed the
   state: the whole change set rides one signed message, sent once for
   every HMI, instead of one message per breaker. *)
let push_hmi_batch t ~exec_seq ~changes =
  let body = Messages.encode_hmi_batch ~rep:(id t) ~exec_seq ~changes in
  let msg =
    Messages.Hmi_batch
      { hb_rep = id t; hb_exec_seq = exec_seq; hb_changes = changes; hb_sig = sign t body }
  in
  t.net.push_hmis (Messages.Scada_msg msg) ~size:(Messages.size msg)

let send_breaker_command t ~exec_seq ~breaker ~close =
  match proxy_endpoint_for_breaker t breaker with
  | None -> Sim.Stats.Counter.incr t.counters "command.unknown_breaker"
  | Some endpoint ->
      let body = Messages.encode_breaker_command ~rep:(id t) ~exec_seq ~breaker ~close in
      let msg =
        Messages.Breaker_command
          { bc_rep = id t; bc_exec_seq = exec_seq; bc_breaker = breaker; bc_close = close;
            bc_sig = sign t body }
      in
      Sim.Stats.Counter.incr t.counters "command.sent";
      t.net.send_endpoint ~endpoint (Messages.Scada_msg msg) ~size:(Messages.size msg)

let apply_update t ~exec_seq (u : Prime.Msg.Update.t) =
  match Op.decode u.Prime.Msg.Update.op with
  | None -> Sim.Stats.Counter.incr t.counters "apply.undecodable"
  | Some op ->
      let changes = State.apply_changes t.state ~exec_seq op in
      List.iter (fun f -> f ~exec_seq op) t.on_apply;
      (match op with
      | Op.Status _ -> Sim.Stats.Counter.incr t.counters "apply.status"
      | Op.Batch _ ->
          Sim.Stats.Counter.incr t.counters "apply.batch";
          Sim.Stats.Counter.incr ~by:(Op.updates op) t.counters "apply.batch_updates"
      | Op.Command { breaker; close } ->
          Sim.Stats.Counter.incr t.counters "apply.command";
          send_breaker_command t ~exec_seq ~breaker ~close
      | Op.Telemetry _ ->
          (* Measurements update the replicated state (and therefore the
             digest) but carry no position changes, so nothing is pushed
             to HMIs — operators read them via the grid overview path. *)
          Sim.Stats.Counter.incr t.counters "apply.telemetry");
      (* Only status and batch ops change positions. Per-breaker push
         marks keep the span pipeline seeing one report per device even
         though the wire carried one op. *)
      if changes <> [] then begin
        List.iter
          (fun (name, closed) ->
            Obs.Registry.mark_status Obs.Registry.default ~breaker:name ~closed
              ~stage:Obs.Registry.stage_push ~time:(Sim.Engine.now t.engine))
          changes;
        push_hmi_batch t ~exec_seq ~changes
      end

(* --- application-level state transfer -------------------------------------- *)

(* Every reply is a checkpoint: the latest on disk, or one built from
   the current state when this run has none yet. The requester votes by
   its Merkle root and replays forward from there. *)
let send_state_reply t =
  let ck = Durable.transfer_checkpoint t.durable in
  let vote = Messages.encode_checkpoint_reply ~rep:(id t) ~root:ck.Store.Checkpoint.ck_root in
  let msg = Messages.Checkpoint_reply { ckr_rep = id t; ckr_ck = ck; ckr_sig = sign t vote } in
  Sim.Stats.Counter.incr t.counters "transfer.reply_sent";
  Sim.Stats.Counter.incr ~by:(Messages.size msg) t.counters "transfer.bytes_sent";
  t.net.broadcast_masters (Messages.Scada_msg msg) ~size:(Messages.size msg)

let request_state_transfer t =
  Sim.Stats.Counter.incr t.counters "transfer.requested";
  let msg = Messages.App_state_request { asr_rep = id t } in
  t.net.broadcast_masters (Messages.Scada_msg msg) ~size:(Messages.size msg)

let begin_state_transfer t =
  if not t.awaiting_transfer then begin
    t.awaiting_transfer <- true;
    Hashtbl.reset t.transfer_votes;
    if Obs.Flight.recording Obs.Flight.default then
      Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
        ~severity:Obs.Flight.Warn ~subsystem:"scada" ~kind:"transfer.begin"
        (Printf.sprintf "master %d requests application state transfer" (id t));
    Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"scada"
      "master %d: starting application-level state transfer" (id t);
    request_state_transfer t;
    (* Retry until the transfer completes (peers may be recovering too). *)
    t.transfer_timer <-
      Some
        (Sim.Engine.every t.engine ~period:1.0 (fun () ->
             if t.awaiting_transfer then request_state_transfer t))
  end

let transfer_done t ~exec_seq =
  t.awaiting_transfer <- false;
  (match t.transfer_timer with
  | Some timer ->
      Sim.Engine.cancel_timer t.engine timer;
      t.transfer_timer <- None
  | None -> ());
  Sim.Stats.Counter.incr t.counters "transfer.completed";
  if Obs.Flight.recording Obs.Flight.default then
    Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
      ~severity:Obs.Flight.Info ~subsystem:"scada" ~kind:"transfer.done"
      (Printf.sprintf "master %d transfer complete at exec %d" (id t) exec_seq);
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"scada"
    "master %d: application state transfer complete at exec %d" (id t) exec_seq

(* Returns [true] when the checkpoint installed; a [false] lets the
   caller drop the vote entry so later (retried) replies can re-earn
   f + 1. *)
let finish_state_transfer t ck =
  match Durable.install_from_peer t.durable ck with
  | Ok () ->
      transfer_done t ~exec_seq:ck.Store.Checkpoint.ck_exec_seq;
      true
  | Error e ->
      Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"scada"
        "master %d: rejected peer checkpoint: %s" (id t) e;
      false

(* Count one vote from authenticated replica [voter] for [ck]'s root.
   Votes are deduplicated by voter id: a single replica replaying its
   reply (or answering every 1s retry round) still contributes one vote,
   so f + 1 votes always involve f + 1 distinct replicas — at least one
   of them correct. *)
let record_transfer_vote t ~voter ck =
  let root = ck.Store.Checkpoint.ck_root in
  let voters =
    match Hashtbl.find_opt t.transfer_votes root with Some (vs, _) -> vs | None -> []
  in
  if not (List.mem voter voters) then begin
    let voters = voter :: voters in
    Hashtbl.replace t.transfer_votes root (voters, ck);
    if List.length voters >= t.config.Prime.Config.f + 1 then
      if not (finish_state_transfer t ck) then
        (* Failed install (e.g. a blob that does not match the voted
           root): forget this root so the next retry round can earn a
           fresh f + 1 on a healthy reply. *)
        Hashtbl.remove t.transfer_votes root
  end

let handle_state_reply t ~rep ~ck ~signature ~size =
  if t.awaiting_transfer then begin
    Sim.Stats.Counter.incr ~by:size t.counters "transfer.bytes_received";
    (* Two signatures, two roles: the checkpoint's own signature pins it
       to the replica that produced it (which may differ from the sender
       when the sender itself adopted it from a peer), while [signature]
       binds the *sender* to the root it vouches for — the authenticated
       identity the vote is counted under. Trust in the content comes
       from f + 1 distinct replicas vouching for the same root. *)
    let producer = ck.Store.Checkpoint.ck_replica in
    let valid =
      producer >= 0
      && producer < t.config.Prime.Config.n
      && rep >= 0
      && rep < t.config.Prime.Config.n
      && Store.Checkpoint.verify ~keystore:t.keystore
           ~signer:(Prime.Msg.replica_identity producer) ck
      && Crypto.Signature.verify t.keystore ~signer:(Prime.Msg.replica_identity rep)
           (Messages.encode_checkpoint_reply ~rep ~root:ck.Store.Checkpoint.ck_root)
           signature
    in
    if valid then record_transfer_vote t ~voter:rep ck
  end

let handle_payload t payload =
  match payload with
  | Messages.Scada_msg (Messages.App_state_request { asr_rep }) ->
      if asr_rep <> id t && not t.awaiting_transfer then send_state_reply t
  | Messages.Scada_msg (Messages.Checkpoint_reply { ckr_rep; ckr_ck; ckr_sig } as reply) ->
      handle_state_reply t ~rep:ckr_rep ~ck:ckr_ck ~signature:ckr_sig
        ~size:(Messages.size reply)
  | _ -> () (* breaker commands and display pushes are for proxies and HMIs *)

(* Ground-truth reset (Section III-A): after an assumption breach the
   masters abandon historical state; the field devices are authoritative
   and the proxies' next polling round repopulates everything. *)
let ground_truth_reset t =
  State.reset t.state;
  t.awaiting_transfer <- false;
  (match t.transfer_timer with
  | Some timer ->
      Sim.Engine.cancel_timer t.engine timer;
      t.transfer_timer <- None
  | None -> ());
  Sim.Stats.Counter.incr t.counters "ground_truth_reset"

let create ~engine ~trace ~keystore ~keypair ~config ~replica ~scenario ~media ~net =
  let state = State.create scenario in
  let t =
    {
      engine;
      trace;
      keystore;
      keypair;
      config;
      replica;
      state;
      net;
      awaiting_transfer = false;
      transfer_votes = Hashtbl.create 8;
      transfer_timer = None;
      counters = Sim.Stats.Counter.create ();
      on_apply = [];
      durable = Durable.create ~keystore ~keypair ~config ~replica ~state ~media;
    }
  in
  Prime.Replica.set_app replica
    {
      Prime.Replica.apply = (fun ~exec_seq u -> apply_update t ~exec_seq u);
      state_transfer_needed = (fun () -> begin_state_transfer t);
    };
  (* Digest/serialize health probe; no-op unless a harness enabled the
     probe registry. *)
  Obs.Probe.register Obs.Probe.default
    ~name:(Printf.sprintf "scada.state.%d" (Prime.Replica.id replica))
    (fun () ->
      let cached, recompute, serializations = State.stats t.state in
      [
        ("digest_cached", float_of_int cached);
        ("digest_recompute", float_of_int recompute);
        ("serialize", float_of_int serializations);
      ]);
  t
