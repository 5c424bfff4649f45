(* Applies fault actions to a running deployment.

   Link faults are realised through [Spines.Node.set_fault_injector]
   closures installed on every replica's internal and external daemons:
   each outgoing link transmission consults this module's shared fault
   state (partitioned links, lossy-link parameters) and draws from the
   chaos RNG, so the whole fault pattern replays from the chaos seed.
   The daemon consults the injector once per wire datagram — each hello
   and each link frame leaving the egress queue — so a lossy link drops
   or delays a frame's coalesced payloads together, the way a real lossy
   wire loses a datagram. Replica faults use the deployment's
   proactive-recovery entry points; leader faults re-use Prime's
   misbehaviour knobs on the current leader. *)

type lossy = { lp_drop : float; lp_duplicate : float; lp_delay_max : float }

type t = {
  deployment : Spire.Deployment.t;
  rng : Sim.Rng.t;
  n : int;
  partitioned : (Fault.link, unit) Hashtbl.t; (* normalised (lo, hi) *)
  lossy : (Fault.link, lossy) Hashtbl.t;
  crashed : bool array;
  mutable leader_fault : int option; (* replica currently faulted as leader *)
}

let norm ((a, b) : Fault.link) : Fault.link = if a <= b then (a, b) else (b, a)

let no_fault =
  { Spines.Node.fd_drop = false; fd_duplicate = false; fd_delay = 0.0 }

let decide t ~me ~peer =
  let key = norm (me, peer) in
  if Hashtbl.mem t.partitioned key then
    { Spines.Node.fd_drop = true; fd_duplicate = false; fd_delay = 0.0 }
  else
    match Hashtbl.find_opt t.lossy key with
    | None -> no_fault
    | Some p ->
        let drop = Sim.Rng.float t.rng 1.0 < p.lp_drop in
        if drop then { Spines.Node.fd_drop = true; fd_duplicate = false; fd_delay = 0.0 }
        else
          {
            Spines.Node.fd_drop = false;
            fd_duplicate = Sim.Rng.float t.rng 1.0 < p.lp_duplicate;
            fd_delay =
              (if p.lp_delay_max > 0.0 && Sim.Rng.bool t.rng then
                 Sim.Rng.float t.rng p.lp_delay_max
               else 0.0);
          }

let create ~rng deployment =
  let replicas = Spire.Deployment.replicas deployment in
  let t =
    {
      deployment;
      rng;
      n = Array.length replicas;
      partitioned = Hashtbl.create 16;
      lossy = Hashtbl.create 16;
      crashed = Array.make (Array.length replicas) false;
      leader_fault = None;
    }
  in
  Array.iteri
    (fun i r ->
      let injector = Some (fun ~peer -> decide t ~me:i ~peer) in
      Spines.Node.set_fault_injector r.Spire.Deployment.r_internal_node injector;
      Spines.Node.set_fault_injector r.Spire.Deployment.r_external_node injector)
    replicas;
  t

let fault_leader t misbehavior =
  let leader = Spire.Deployment.current_leader t.deployment in
  let replicas = Spire.Deployment.replicas t.deployment in
  Prime.Replica.set_misbehavior replicas.(leader).Spire.Deployment.r_replica misbehavior;
  t.leader_fault <- Some leader

let apply t (action : Fault.action) =
  match action with
  | Crash_replica i ->
      if not t.crashed.(i) then begin
        Spire.Deployment.take_down_replica t.deployment i;
        t.crashed.(i) <- true;
        if t.leader_fault = Some i then t.leader_fault <- None
      end
  | Restart_replica i ->
      if t.crashed.(i) then begin
        Spire.Deployment.bring_up_replica_clean t.deployment i;
        (* A clean image boots honest, whatever was armed before. *)
        Prime.Replica.set_misbehavior
          (Spire.Deployment.replicas t.deployment).(i).Spire.Deployment.r_replica
          Prime.Replica.Honest;
        t.crashed.(i) <- false
      end
  | Restart_replica_intact i ->
      if t.crashed.(i) then begin
        Spire.Deployment.bring_up_replica_intact t.deployment i;
        Prime.Replica.set_misbehavior
          (Spire.Deployment.replicas t.deployment).(i).Spire.Deployment.r_replica
          Prime.Replica.Honest;
        t.crashed.(i) <- false
      end
  | Disk_tear i ->
      ignore (Store.Media.tear_any (Scada.Durable.media (Spire.Deployment.durable t.deployment i)))
  | Disk_corrupt i ->
      ignore
        (Store.Media.corrupt_any (Scada.Durable.media (Spire.Deployment.durable t.deployment i)))
  | Disk_wipe i -> Scada.Durable.wipe_disk (Spire.Deployment.durable t.deployment i)
  | Partition links -> List.iter (fun l -> Hashtbl.replace t.partitioned (norm l) ()) links
  | Heal links -> List.iter (fun l -> Hashtbl.remove t.partitioned (norm l)) links
  | Lossy_link { link; drop; duplicate; delay_max } ->
      Hashtbl.replace t.lossy (norm link)
        { lp_drop = drop; lp_duplicate = duplicate; lp_delay_max = delay_max }
  | Clear_link link -> Hashtbl.remove t.lossy (norm link)
  | Leader_silent -> fault_leader t Prime.Replica.Crash_silent
  | Leader_equivocate -> fault_leader t Prime.Replica.Equivocate
  | Leader_restore -> (
      match t.leader_fault with
      | None -> ()
      | Some i ->
          Prime.Replica.set_misbehavior
            (Spire.Deployment.replicas t.deployment).(i).Spire.Deployment.r_replica
            Prime.Replica.Honest;
          t.leader_fault <- None)

let crashed_count t = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.crashed

let leader_fault_active t = t.leader_fault <> None

(* Replicas cut off from every peer by the active partitions. *)
let isolated_count t =
  let isolated = ref 0 in
  for r = 0 to t.n - 1 do
    let cut = ref 0 in
    for peer = 0 to t.n - 1 do
      if peer <> r && Hashtbl.mem t.partitioned (norm (r, peer)) then incr cut
    done;
    if !cut = t.n - 1 then incr isolated
  done;
  !isolated

let max_active_drop t =
  Hashtbl.fold (fun _ p acc -> Float.max acc p.lp_drop) t.lossy 0.0
