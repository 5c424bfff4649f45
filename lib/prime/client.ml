(* Prime client session.

   In Spire the clients of the replication engine are the PLC/RTU proxies
   and the HMI proxy: they submit signed updates (status changes,
   supervisory commands) and consume execution replies. An update is
   confirmed once f + 1 replicas report the same execution — at least one
   of them is correct. Only unconfirmed updates are held: every sequence
   up to [next_seq] that is not pending is confirmed. *)

type pending = {
  sent_at : float;
  update : Msg.Update.t; (* kept for retransmission *)
  replies : (int, int) Hashtbl.t; (* replica -> exec_seq it reported *)
}

type t = {
  config : Config.t;
  keypair : Crypto.Signature.keypair;
  keystore : Crypto.Signature.keystore;
  engine : Sim.Engine.t;
  send_to_replica : dst:int -> Msg.t -> unit;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t; (* unconfirmed updates, by client_seq *)
  mutable on_confirmed : (client_seq:int -> latency:float -> unit) option;
  counters : Sim.Stats.Counter.t;
  mutable retransmit_timer : Sim.Engine.timer option;
}

let create ~engine ~keystore ~keypair ~send_to_replica config =
  {
    config;
    keypair;
    keystore;
    engine;
    send_to_replica;
    next_seq = 0;
    pending = Hashtbl.create 16;
    on_confirmed = None;
    counters = Sim.Stats.Counter.create ();
    retransmit_timer = None;
  }

let identity t = Crypto.Signature.identity t.keypair

let counters t = t.counters

let set_on_confirmed t f = t.on_confirmed <- Some f

(* Submit an operation; returns the client sequence for tracking. The
   default target set is f + 1 replicas (rotating with the sequence
   number): at least one is correct, and retransmission covers the case
   where all initial targets are faulty or recovering. *)
let submit ?targets t ~op =
  t.next_seq <- t.next_seq + 1;
  let client_seq = t.next_seq in
  let update = Msg.Update.create ~keypair:t.keypair ~client_seq ~op in
  Hashtbl.replace t.pending client_seq
    { sent_at = Sim.Engine.now t.engine; update; replies = Hashtbl.create 8 };
  Sim.Stats.Counter.incr t.counters "submitted";
  let targets =
    match targets with
    | Some l -> l
    | None ->
        let n = t.config.Config.n in
        List.init (t.config.Config.f + 1) (fun i -> (client_seq + i) mod n)
  in
  List.iter (fun dst -> t.send_to_replica ~dst (Msg.Update_msg update)) targets;
  client_seq

(* A reply for an update no longer pending (confirmed, or never sent)
   is dropped before its signature is checked. *)
let handle_reply t = function
  | Msg.Client_reply { crep_rep; crep_client; crep_client_seq; crep_exec_seq; crep_sig } -> (
      if String.equal crep_client (identity t) then
        match Hashtbl.find_opt t.pending crep_client_seq with
        | None -> ()
        | Some p ->
            let body =
              Msg.encode_client_reply ~rep:crep_rep ~client:crep_client
                ~client_seq:crep_client_seq ~exec_seq:crep_exec_seq
            in
            if
              not
                (Crypto.Signature.verify t.keystore ~signer:(Msg.replica_identity crep_rep) body
                   crep_sig)
            then Sim.Stats.Counter.incr t.counters "reply.bad_sig"
            else begin
              Hashtbl.replace p.replies crep_rep crep_exec_seq;
              (* f + 1 replicas reporting the same exec_seq confirm it; only
                 the value just reported can have reached f + 1. *)
              let matching =
                Hashtbl.fold
                  (fun _ exec n -> if exec = crep_exec_seq then n + 1 else n)
                  p.replies 0
              in
              if matching >= t.config.Config.f + 1 then begin
                Hashtbl.remove t.pending crep_client_seq;
                Sim.Stats.Counter.incr t.counters "confirmed";
                let latency = Sim.Engine.now t.engine -. p.sent_at in
                match t.on_confirmed with
                | Some f -> f ~client_seq:crep_client_seq ~latency
                | None -> ()
              end
            end)
  | _ -> ()

let outstanding t = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.pending []

(* Retransmission: unconfirmed updates are re-sent to every replica
   every [period], oldest first. Losing an update is otherwise possible
   when the network path fails over (e.g. a session client switching
   daemons while its home replica undergoes proactive recovery). *)
let enable_retransmit t ~period =
  if t.retransmit_timer = None then
    t.retransmit_timer <-
      Some
        (Sim.Engine.every t.engine ~period (fun () ->
             let now = Sim.Engine.now t.engine in
             List.iter
               (fun seq ->
                 match Hashtbl.find_opt t.pending seq with
                 | Some p when now -. p.sent_at > period ->
                     Sim.Stats.Counter.incr t.counters "retransmitted";
                     List.iter
                       (fun dst -> t.send_to_replica ~dst (Msg.Update_msg p.update))
                       (Config.replica_ids t.config)
                 | Some _ | None -> ())
               (List.sort Int.compare (outstanding t))))

let is_confirmed t ~client_seq =
  client_seq >= 1 && client_seq <= t.next_seq && not (Hashtbl.mem t.pending client_seq)
