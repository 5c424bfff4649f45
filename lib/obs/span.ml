(* Pipeline tracing.

   The SCADA data path is a fixed stage sequence (flip -> proxy.report ->
   prime.accept -> prime.preorder -> prime.execute -> hmi.repaint)
   correlated by an out-of-band trace key — the canonical Scada.Op
   encoding, which already flows end to end unchanged. Embedding ids in
   messages would perturb the deterministic schedule (different sizes,
   different dedup), so instrumentation points instead call [mark] with
   the key they already have.

   An *opening* stage begins a new instance for its key (abandoning any
   still-open one — a flip that never reached the HMI); a *closing*
   stage completes it. Every stage records only its first occurrence
   per instance: replicas re-broadcast and retransmit, but causally the
   stage happened when it first happened. Marks with no open instance
   (e.g. periodic status polls that aren't part of a watched flip) are
   counted and dropped. *)

type instance = {
  trace : string;
  mutable marks : (string * float) list; (* newest first while building *)
  mutable complete : bool;
}

type store = {
  opens : (string, unit) Hashtbl.t;
  closes : (string, unit) Hashtbl.t;
  active : (string, instance) Hashtbl.t; (* open instance per trace key *)
  mutable completed : instance list; (* newest first *)
  mutable abandoned : int; (* re-opened before closing *)
  mutable orphans : int; (* marks with no open instance *)
}

let create_store ?(opens = []) ?(closes = []) () =
  let table keys =
    let h = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace h k ()) keys;
    h
  in
  {
    opens = table opens;
    closes = table closes;
    active = Hashtbl.create 64;
    completed = [];
    abandoned = 0;
    orphans = 0;
  }

let mark store ~trace ~stage ~time =
  if Hashtbl.mem store.opens stage then begin
    (match Hashtbl.find_opt store.active trace with
    | Some _ -> store.abandoned <- store.abandoned + 1
    | None -> ());
    Hashtbl.replace store.active trace
      { trace; marks = [ (stage, time) ]; complete = false }
  end
  else
    match Hashtbl.find_opt store.active trace with
    | None -> store.orphans <- store.orphans + 1
    | Some inst ->
        if not (List.mem_assoc stage inst.marks) then begin
          inst.marks <- (stage, time) :: inst.marks;
          if Hashtbl.mem store.closes stage then begin
            inst.complete <- true;
            inst.marks <- List.rev inst.marks; (* freeze in causal order *)
            Hashtbl.remove store.active trace;
            store.completed <- inst :: store.completed
          end
        end

let completed store = List.rev store.completed

let completed_count store = List.length store.completed

let active_count store = Hashtbl.length store.active

let abandoned_count store = store.abandoned

let orphan_count store = store.orphans

let mark_time inst stage = List.assoc_opt stage inst.marks

let marks inst = if inst.complete then inst.marks else List.rev inst.marks

(* Per-stage-pair latency summaries over completed instances. Instances
   missing either endpoint are skipped (a stage can legitimately be
   absent, e.g. overlay hops on a loopback harness). *)
let stage_breakdown store ~stages =
  List.map
    (fun (label, from_stage, to_stage) ->
      let summary = Sim.Stats.Summary.create () in
      List.iter
        (fun inst ->
          match (mark_time inst from_stage, mark_time inst to_stage) with
          | Some a, Some b -> Sim.Stats.Summary.add summary (b -. a)
          | _ -> ())
        (completed store);
      (label, summary))
    stages

let reset store =
  Hashtbl.reset store.active;
  store.completed <- [];
  store.abandoned <- 0;
  store.orphans <- 0

(* Trace keys: the canonical Scada.Op encodings. Building them here (not
   via Scada.Op) keeps obs below scada in the dependency order. *)

let status_key ~breaker ~closed = Printf.sprintf "status:%s:%d" breaker (if closed then 1 else 0)

let command_key ~breaker ~close = Printf.sprintf "cmd:%s:%d" breaker (if close then 1 else 0)
