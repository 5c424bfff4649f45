(* f + 1 agreement gate.

   Proxies and HMIs act on a message only once f + 1 distinct replicas
   have sent an identical one: at least one of them is correct, and a
   correct replica only speaks for ordered state. Each decided key is
   remembered so replays cannot trigger the action twice.

   Memory is bounded: only the most recent [retention] decided keys are
   kept for replay suppression, and open vote sets that have seen no
   activity for [retention] decisions are discarded. Replicas replay a
   key only within a short window of its decision (retransmissions and
   lagging replicas), so a multi-thousand-key horizon preserves the
   suppression guarantee in practice while keeping long runs flat. *)

type pending = { voters : (int, unit) Hashtbl.t; mutable last_tick : int }

type t = {
  needed : int;
  retention : int;
  votes : (string, pending) Hashtbl.t; (* key -> voting replicas *)
  decided : (string, unit) Hashtbl.t;
  decided_order : string Queue.t; (* FIFO of decided keys, oldest first *)
  mutable tick : int; (* logical clock: one tick per decision *)
  mutable evictions : int;
}

let create ?(retention = 4096) ~needed () =
  if retention < 1 then invalid_arg "Threshold.create: retention must be >= 1";
  {
    needed;
    retention;
    votes = Hashtbl.create 64;
    decided = Hashtbl.create 16;
    decided_order = Queue.create ();
    tick = 0;
    evictions = 0;
  }

let prune_decided t =
  while Queue.length t.decided_order > t.retention do
    let key = Queue.pop t.decided_order in
    Hashtbl.remove t.decided key;
    t.evictions <- t.evictions + 1
  done

(* Drop open vote sets untouched for a full retention horizon: votes for
   a key that never reaches threshold (equivocation, partial delivery)
   would otherwise accumulate forever. Amortised: scans only once per
   retention-worth of decisions. *)
let prune_stale_votes t =
  if t.tick mod t.retention = 0 then begin
    let stale =
      Hashtbl.fold
        (fun key p acc -> if t.tick - p.last_tick >= t.retention then key :: acc else acc)
        t.votes []
    in
    List.iter
      (fun key ->
        Hashtbl.remove t.votes key;
        t.evictions <- t.evictions + 1)
      stale
  end

(* Returns [true] exactly once per key: when [voter]'s vote completes the
   threshold. *)
let vote t ~key ~voter =
  if Hashtbl.mem t.decided key then false
  else begin
    let p =
      match Hashtbl.find_opt t.votes key with
      | Some p -> p
      | None ->
          let p = { voters = Hashtbl.create 8; last_tick = t.tick } in
          Hashtbl.replace t.votes key p;
          p
    in
    Hashtbl.replace p.voters voter ();
    p.last_tick <- t.tick;
    if Hashtbl.length p.voters >= t.needed then begin
      Hashtbl.replace t.decided key ();
      Queue.push key t.decided_order;
      Hashtbl.remove t.votes key;
      t.tick <- t.tick + 1;
      prune_decided t;
      prune_stale_votes t;
      true
    end
    else false
  end

let decided t key = Hashtbl.mem t.decided key

let decided_count t = Hashtbl.length t.decided

let open_votes t = Hashtbl.length t.votes

let evictions t = t.evictions
