(* Prime ordering sub-protocol state.

   The leader periodically proposes a Pre-Prepare carrying its proof
   matrix; replicas agree on it with Prepare/Commit quorums (PBFT-style,
   with Prime's 2f + k + 1 quorums). An ordered pre-prepare does not list
   updates explicitly: the matrix *implies* which preordered updates became
   eligible, and every replica derives the same execution order from it
   (origins in ascending order, each origin's updates in preorder
   sequence). Execution stalls on updates whose bodies are still missing;
   the replica fetches them via reconciliation and retries. *)

type instance = {
  pp_seq : int;
  mutable inst_view : int;
  mutable matrix : Msg.matrix option;
  mutable digest : Crypto.Sha256.digest option;
  mutable pp_sig : Crypto.Signature.t option; (* leader's authenticator, for relay *)
  prepares : (int, unit) Hashtbl.t;
  commits : (int, unit) Hashtbl.t;
  (* Commit authenticators retained past ordering: together with
     [pp_sig] they form a self-certifying commit certificate that can be
     served to lagging replicas (who may be unable to complete the
     quorum themselves once everyone else has moved on). *)
  commit_auths : (int, Crypto.Signature.t) Hashtbl.t;
  mutable prepared : bool;
  mutable ordered : bool;
}

type t = {
  config : Config.t;
  my_id : int;
  instances : (int, instance) Hashtbl.t; (* by pp_seq *)
  mutable next_exec_pp : int; (* lowest pp_seq not yet executed *)
  exec_cursor : int array; (* per-origin: preorder seq executed through *)
  mutable exec_seq : int; (* global execution counter *)
  mutable max_seen_pp : int;
}

let create config ~my_id =
  {
    config;
    my_id;
    instances = Hashtbl.create 1024;
    next_exec_pp = 1;
    exec_cursor = Array.make config.Config.n 0;
    exec_seq = 0;
    max_seen_pp = 0;
  }

let instance_for t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with
  | Some i -> i
  | None ->
      let i =
        {
          pp_seq;
          inst_view = -1;
          matrix = None;
          digest = None;
          pp_sig = None;
          prepares = Hashtbl.create 8;
          commits = Hashtbl.create 8;
          commit_auths = Hashtbl.create 8;
          prepared = false;
          ordered = false;
        }
      in
      Hashtbl.replace t.instances pp_seq i;
      i

let max_seen_pp t = t.max_seen_pp

let next_exec_pp t = t.next_exec_pp

let exec_seq t = t.exec_seq

let exec_cursor t = Array.copy t.exec_cursor

let note_pp_seq t pp_seq = if pp_seq > t.max_seen_pp then t.max_seen_pp <- pp_seq

(* Accept a pre-prepare for (view, pp_seq). A later view overrides an
   earlier one (view change re-proposal); counters reset because prepares
   and commits are only meaningful within one view. *)
let accept_pre_prepare t ~view ~pp_seq ~matrix ~pp_sig =
  note_pp_seq t pp_seq;
  let inst = instance_for t pp_seq in
  if inst.ordered then `Already_ordered
  else if view < inst.inst_view then `Stale
  else begin
    let digest = Msg.matrix_digest ~view ~pp_seq matrix in
    if view = inst.inst_view then
      match inst.digest with
      | Some d when not (String.equal d digest) -> `Conflicting_leader
      | Some _ -> `Duplicate
      | None -> assert false
    else begin
      inst.inst_view <- view;
      inst.matrix <- Some matrix;
      inst.digest <- Some digest;
      inst.pp_sig <- Some pp_sig;
      Hashtbl.reset inst.prepares;
      Hashtbl.reset inst.commits;
      Hashtbl.reset inst.commit_auths;
      inst.prepared <- false;
      `Accept digest
    end
  end

(* The oldest instances that block execution: have an accepted pre-prepare
   but are not ordered yet. Used for ordering-message retransmission so a
   recovered replica can still complete them. *)
let stalled_instances t ~limit =
  let rec collect pp acc remaining =
    if remaining = 0 || pp > t.max_seen_pp then List.rev acc
    else
      match Hashtbl.find_opt t.instances pp with
      | Some ({ ordered = false; matrix = Some m; digest = Some d; pp_sig = Some s; _ } as inst)
        ->
          collect (pp + 1)
            ((pp, inst.inst_view, m, d, s, inst.prepared) :: acc)
            (remaining - 1)
      | Some _ | None -> collect (pp + 1) acc remaining
  in
  collect t.next_exec_pp [] limit

(* Count a prepare; returns [true] when the instance just became prepared.
   Every replica (leader included) broadcasts a Prepare after accepting
   the pre-prepare, so prepared requires a full quorum of distinct
   prepares. *)
let add_prepare t ~rep ~view ~pp_seq ~digest =
  let inst = instance_for t pp_seq in
  match inst.digest with
  | Some d when inst.inst_view = view && String.equal d digest && not inst.ordered ->
      Hashtbl.replace inst.prepares rep ();
      if (not inst.prepared) && Hashtbl.length inst.prepares >= t.config.Config.quorum
      then begin
        inst.prepared <- true;
        true
      end
      else false
  | _ -> false

let add_commit t ~rep ~view ~pp_seq ~digest =
  let inst = instance_for t pp_seq in
  match inst.digest with
  | Some d when inst.inst_view = view && String.equal d digest && not inst.ordered ->
      Hashtbl.replace inst.commits rep ();
      if Hashtbl.length inst.commits >= t.config.Config.quorum then begin
        inst.ordered <- true;
        true
      end
      else false
  | _ -> false

(* Retain a commit authenticator for certificate serving. Unlike
   [add_commit] this accepts authenticators for instances that are
   already ordered — those are exactly the ones whose quorum a lagging
   replica can no longer complete from live traffic. *)
let record_commit_auth t ~rep ~view ~pp_seq ~digest auth =
  match Hashtbl.find_opt t.instances pp_seq with
  | Some inst -> (
      match inst.digest with
      | Some d when inst.inst_view = view && String.equal d digest ->
          Hashtbl.replace inst.commit_auths rep auth
      | _ -> ())
  | None -> ()

(* The self-certifying commit certificate for an ordered instance, once
   enough authenticators have been retained. *)
let ordered_cert t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with
  | Some ({ ordered = true; matrix = Some m; pp_sig = Some s; _ } as inst)
    when Hashtbl.length inst.commit_auths >= t.config.Config.quorum ->
      let commits = Hashtbl.fold (fun rep a acc -> (rep, a) :: acc) inst.commit_auths [] in
      let commits = List.sort (fun (a, _) (b, _) -> compare a b) commits in
      Some (inst.inst_view, m, s, commits)
  | Some _ | None -> None

(* Install a verified commit certificate: the instance is ordered by
   fiat, overriding any locally-unfinished quorum state (the certificate
   proves a commit quorum existed, which is strictly more than anything
   a partial local count could establish). Returns [true] when the
   instance was not already ordered. *)
let install_cert t ~pp_seq ~view ~matrix ~digest ~pp_sig ~commits =
  note_pp_seq t pp_seq;
  let inst = instance_for t pp_seq in
  if inst.ordered then false
  else begin
    inst.inst_view <- view;
    inst.matrix <- Some matrix;
    inst.digest <- Some digest;
    inst.pp_sig <- Some pp_sig;
    Hashtbl.reset inst.prepares;
    Hashtbl.reset inst.commits;
    Hashtbl.reset inst.commit_auths;
    List.iter
      (fun (rep, auth) ->
        Hashtbl.replace inst.commits rep ();
        Hashtbl.replace inst.commit_auths rep auth)
      commits;
    inst.prepared <- true;
    inst.ordered <- true;
    true
  end

(* Highest ordered instance at or above the execution cursor — the upper
   bound of what we can serve commit certificates for. *)
let max_ordered_seen t =
  let best = ref (t.next_exec_pp - 1) in
  Hashtbl.iter (fun pp_seq inst -> if inst.ordered && pp_seq > !best then best := pp_seq)
    t.instances;
  !best

let is_ordered t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with Some i -> i.ordered | None -> false

let is_prepared t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with Some i -> i.prepared | None -> false

(* Execution: walk ordered instances in pp_seq order; for each, derive
   per-origin eligibility from the matrix and execute newly-eligible
   updates origin-by-origin. Returns executed (exec_seq, origin, po_seq,
   update) plus the missing bodies blocking progress, if any. *)
type missing = { miss_origin : int; miss_po_seq : int }

let try_execute t ~update_for ~floor_for =
  let executed = ref [] in
  let missing = ref [] in
  let rec walk () =
    match Hashtbl.find_opt t.instances t.next_exec_pp with
    | Some ({ ordered = true; matrix = Some m; _ } as _inst) ->
        (* First pass: confirm every newly-eligible body is available.
           Slots at or below an origin's reset floor are void: the cursor
           jumps over them without executing anything. *)
        let plan = ref [] in
        for origin = 0 to t.config.Config.n - 1 do
          let upto = Preorder.eligible_up_to t.config m ~origin in
          let floor = floor_for ~origin in
          if floor > t.exec_cursor.(origin) then
            t.exec_cursor.(origin) <- min floor upto |> max t.exec_cursor.(origin);
          for po_seq = t.exec_cursor.(origin) + 1 to upto do
            plan := (origin, po_seq) :: !plan
          done
        done;
        let plan = List.rev !plan in
        let absent =
          List.filter (fun (origin, po_seq) -> update_for ~origin ~po_seq = None) plan
        in
        if absent <> [] then
          missing :=
            List.map (fun (o, s) -> { miss_origin = o; miss_po_seq = s }) absent
        else begin
          List.iter
            (fun (origin, po_seq) ->
              match update_for ~origin ~po_seq with
              | Some u ->
                  t.exec_seq <- t.exec_seq + 1;
                  t.exec_cursor.(origin) <- po_seq;
                  executed := (t.exec_seq, origin, po_seq, u) :: !executed
              | None -> assert false)
            plan;
          t.next_exec_pp <- t.next_exec_pp + 1;
          walk ()
        end
    | Some _ | None -> ()
  in
  walk ();
  (List.rev !executed, !missing)

(* Prepared-but-not-yet-executed certificates for view-change reports. *)
let prepared_certs t =
  Hashtbl.fold
    (fun pp_seq inst acc ->
      if inst.prepared && pp_seq >= t.next_exec_pp then
        match inst.matrix with
        | Some m -> { Msg.pc_seq = pp_seq; pc_view = inst.inst_view; pc_matrix = m } :: acc
        | None -> acc
      else acc)
    t.instances []
  |> List.sort (fun a b -> compare a.Msg.pc_seq b.Msg.pc_seq)

(* Highest pp_seq executed (everything below is reflected in state). *)
let max_executed t = t.next_exec_pp - 1

(* Fast-forward execution cursors after an application-level state
   transfer: the application state already reflects everything up to the
   peer's cursors, so executing those updates again would corrupt it. *)
let install_checkpoint t ~next_exec_pp ~exec_seq ~cursor =
  t.next_exec_pp <- next_exec_pp;
  t.exec_seq <- exec_seq;
  Array.blit cursor 0 t.exec_cursor 0 (Array.length t.exec_cursor)
