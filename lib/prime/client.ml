(* Prime client session.

   In Spire the clients of the replication engine are the PLC/RTU proxies
   and the HMI proxy: they submit signed updates (status changes,
   supervisory commands) and consume execution replies. An update is
   confirmed once f + 1 replicas report the same execution — at least one
   of them is correct. *)

type pending = {
  sent_at : float;
  update : Msg.Update.t; (* kept for retransmission *)
  replies : (int, int) Hashtbl.t; (* replica -> exec_seq it reported *)
  mutable confirmed : bool;
}

type t = {
  config : Config.t;
  keypair : Crypto.Signature.keypair;
  keystore : Crypto.Signature.keystore;
  engine : Sim.Engine.t;
  send_to_replica : dst:int -> Msg.t -> unit;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t; (* by client_seq *)
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
    pending = Hashtbl.create 256;
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
    { sent_at = Sim.Engine.now t.engine; update; replies = Hashtbl.create 8;
      confirmed = false };
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

let handle_reply t = function
  | Msg.Client_reply { crep_rep; crep_client; crep_client_seq; crep_exec_seq; crep_sig } ->
      if String.equal crep_client (identity t) then begin
        let body =
          Msg.encode_client_reply ~rep:crep_rep ~client:crep_client
            ~client_seq:crep_client_seq ~exec_seq:crep_exec_seq
        in
        let valid =
          Crypto.Signature.verify t.keystore ~signer:(Msg.replica_identity crep_rep) body crep_sig
        in
        if not valid then Sim.Stats.Counter.incr t.counters "reply.bad_sig"
        else
          match Hashtbl.find_opt t.pending crep_client_seq with
          | None -> ()
          | Some p when p.confirmed -> ()
          | Some p ->
              Hashtbl.replace p.replies crep_rep crep_exec_seq;
              (* f + 1 replicas reporting the same exec_seq confirm it. *)
              let by_exec = Hashtbl.create 4 in
              Hashtbl.iter
                (fun _ exec ->
                  Hashtbl.replace by_exec exec
                    (1 + Option.value ~default:0 (Hashtbl.find_opt by_exec exec)))
                p.replies;
              let confirmed =
                Hashtbl.fold
                  (fun _ count acc -> acc || count >= t.config.Config.f + 1)
                  by_exec false
              in
              if confirmed then begin
                p.confirmed <- true;
                Sim.Stats.Counter.incr t.counters "confirmed";
                let latency = Sim.Engine.now t.engine -. p.sent_at in
                match t.on_confirmed with
                | Some f -> f ~client_seq:crep_client_seq ~latency
                | None -> ()
              end
      end
  | _ -> ()

(* Retransmission: unconfirmed updates are re-sent to every replica
   every [period]. Losing an update is otherwise possible when the
   network path fails over (e.g. a session client switching daemons while
   its home replica undergoes proactive recovery). *)
let enable_retransmit t ~period =
  if t.retransmit_timer = None then
    t.retransmit_timer <-
      Some
        (Sim.Engine.every t.engine ~period (fun () ->
             let now = Sim.Engine.now t.engine in
             Hashtbl.iter
               (fun _ p ->
                 if (not p.confirmed) && now -. p.sent_at > period then begin
                   Sim.Stats.Counter.incr t.counters "retransmitted";
                   List.iter
                     (fun dst -> t.send_to_replica ~dst (Msg.Update_msg p.update))
                     (Config.replica_ids t.config)
                 end)
               t.pending))

let disable_retransmit t =
  match t.retransmit_timer with
  | Some timer ->
      Sim.Engine.cancel_timer t.engine timer;
      t.retransmit_timer <- None
  | None -> ()

let is_confirmed t ~client_seq =
  match Hashtbl.find_opt t.pending client_seq with
  | Some p -> p.confirmed
  | None -> false

let outstanding t =
  Hashtbl.fold (fun seq p acc -> if p.confirmed then acc else seq :: acc) t.pending []
