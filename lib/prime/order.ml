(* Prime ordering sub-protocol state.

   The leader periodically proposes a Pre-Prepare carrying its proof
   matrix; replicas agree on it with Prepare/Commit quorums (PBFT-style,
   with Prime's 2f + k + 1 quorums). An ordered pre-prepare does not list
   updates explicitly: the matrix *implies* which preordered updates became
   eligible, and every replica derives the same execution order from it
   (origins in ascending order, each origin's updates in preorder
   sequence). Execution stalls on updates whose bodies are still missing;
   the replica fetches them via reconciliation and retries.

   A verified prepare or commit can overtake its pre-prepare (the leader's
   copy travels a slower path, or is lost and relayed later). Such an
   early vote is kept in one table keyed by (pp_seq, voter) and counted
   when the matching pre-prepare is accepted: with exactly a quorum of
   live replicas, every vote is needed, and dropping one would leave the
   instance waiting for the reconciliation tick's relay. Only instances up
   to one past the highest pre-prepare seen are buffered, so a vote far
   ahead creates no state. A buffered vote counts only against the
   accepted (view, digest), exactly like a vote arriving on time.

   Executed instances stay for commit-certificate serving until the
   replica releases them at a checkpoint boundary ([release_below]);
   below that low-water mark every message is stale and the caller drops
   it before verification. *)

type instance = {
  pp_seq : int;
  mutable inst_view : int;
  mutable matrix : Msg.matrix option;
  mutable digest : Crypto.Sha256.digest option;
  mutable pp_sig : Crypto.Signature.t option; (* leader's authenticator, for relay *)
  (* Voter bit sets ([Voters]) of the current view's matching votes.
     [commits] keeps growing past ordering, with [commit_auths]. *)
  mutable prepares : int;
  mutable commits : int;
  (* Commit authenticators by voter, retained past ordering: together
     with [pp_sig] they form a self-certifying commit certificate that
     can be served to lagging replicas (who may be unable to complete
     the quorum themselves once everyone else has moved on). *)
  commit_auths : Crypto.Signature.t option array;
  mutable prepared : bool;
  mutable ordered : bool;
  mutable accepted_at : float; (* when the current pre-prepare was accepted *)
}

(* The votes a voter sent for an instance whose pre-prepare is not
   accepted yet: its latest prepare (view, digest) and commit
   (view, digest, authenticator). *)
type early = {
  mutable early_prepare : (int * Crypto.Sha256.digest) option;
  mutable early_commit : (int * Crypto.Sha256.digest * Crypto.Signature.t) option;
}

type t = {
  config : Config.t;
  my_id : int;
  instances : (int, instance) Hashtbl.t; (* by pp_seq, none below [low_water] *)
  mutable low_water : int; (* instances below it are released *)
  mutable next_exec_pp : int; (* lowest pp_seq not yet executed *)
  exec_cursor : int array; (* per-origin: preorder seq executed through *)
  mutable exec_seq : int; (* global execution counter *)
  mutable max_seen_pp : int;
  early : (int, early) Hashtbl.t; (* by pp_seq * n + voter *)
}

let create config ~my_id =
  {
    config;
    my_id;
    instances = Hashtbl.create 64;
    low_water = 1;
    next_exec_pp = 1;
    exec_cursor = Array.make config.Config.n 0;
    exec_seq = 0;
    max_seen_pp = 0;
    early = Hashtbl.create 16;
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
          prepares = 0;
          commits = 0;
          commit_auths = Array.make t.config.Config.n None;
          prepared = false;
          ordered = false;
          accepted_at = neg_infinity;
        }
      in
      Hashtbl.replace t.instances pp_seq i;
      i

let max_seen_pp t = t.max_seen_pp

let next_exec_pp t = t.next_exec_pp

let exec_seq t = t.exec_seq

let exec_cursor t = Array.copy t.exec_cursor

let executed_through t ~origin = t.exec_cursor.(origin)

let early_votes t = Hashtbl.length t.early

let released t pp_seq = pp_seq < t.low_water

(* Executed instances still held; everything from [next_exec_pp] up is in
   flight. *)
let retained_executed t =
  Hashtbl.fold (fun pp _ acc -> if pp < t.next_exec_pp then acc + 1 else acc) t.instances 0

(* A filter, not a walk over the released range: a jump of
   [next_exec_pp] (state transfer) can span far more sequences than the
   table holds. *)
let release_below t pp_seq =
  let pp_seq = min pp_seq t.next_exec_pp in
  if pp_seq > t.low_water then begin
    t.low_water <- pp_seq;
    Hashtbl.filter_map_inplace
      (fun pp inst -> if pp < pp_seq then None else Some inst)
      t.instances
  end

let note_pp_seq t pp_seq = if pp_seq > t.max_seen_pp then t.max_seen_pp <- pp_seq

let early_key t ~pp_seq ~voter = (pp_seq * t.config.Config.n) + voter

(* Where a vote for [pp_seq] in [view] goes: counted against the accepted
   instance, kept as an early vote, or dropped (older view, executed, or
   beyond the buffer window). *)
let classify t ~view ~pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with
  | Some inst when inst.inst_view = view -> `Count inst
  | Some inst when view > inst.inst_view && not inst.ordered -> `Early
  | Some _ -> `Drop
  | None when pp_seq >= t.next_exec_pp && pp_seq <= t.max_seen_pp + 1 -> `Early
  | None -> `Drop

let early_entry t ~pp_seq ~voter =
  let key = early_key t ~pp_seq ~voter in
  match Hashtbl.find_opt t.early key with
  | Some e -> e
  | None ->
      let e = { early_prepare = None; early_commit = None } in
      Hashtbl.replace t.early key e;
      e

let valid_voter t voter = Voters.valid t.config voter

(* Count a matching commit: its voter's bit and authenticator. *)
let note_commit t inst voter auth =
  if valid_voter t voter then begin
    inst.commits <- Voters.add t.config inst.commits voter;
    inst.commit_auths.(voter) <- Some auth
  end

(* A voter's latest view wins: an honest replica only moves forward, and
   a faulty one can only spoil its own entry. *)
let keep_early_prepare t ~rep ~view ~pp_seq ~digest =
  if valid_voter t rep then begin
    let e = early_entry t ~pp_seq ~voter:rep in
    match e.early_prepare with
    | Some (v, _) when v > view -> ()
    | Some _ | None -> e.early_prepare <- Some (view, digest)
  end

let keep_early_commit t ~rep ~view ~pp_seq ~digest auth =
  if valid_voter t rep then begin
    let e = early_entry t ~pp_seq ~voter:rep in
    match e.early_commit with
    | Some (v, _, _) when v > view -> ()
    | Some _ | None -> e.early_commit <- Some (view, digest, auth)
  end

(* Count the early votes that match the just-accepted (view, digest) and
   forget every entry that can no longer count (this view or older). *)
let fold_early t inst ~view ~digest =
  if Hashtbl.length t.early > 0 then
    for voter = 0 to t.config.Config.n - 1 do
      let key = early_key t ~pp_seq:inst.pp_seq ~voter in
      match Hashtbl.find_opt t.early key with
      | None -> ()
      | Some e ->
          (match e.early_prepare with
          | Some (v, d) when v <= view ->
              if v = view && String.equal d digest then
                inst.prepares <- Voters.add t.config inst.prepares voter;
              e.early_prepare <- None
          | Some _ | None -> ());
          (match e.early_commit with
          | Some (v, d, auth) when v <= view ->
              if v = view && String.equal d digest then note_commit t inst voter auth;
              e.early_commit <- None
          | Some _ | None -> ());
          if Option.is_none e.early_prepare && Option.is_none e.early_commit then
            Hashtbl.remove t.early key
    done

let drop_early t pp_seq =
  if Hashtbl.length t.early > 0 then
    for voter = 0 to t.config.Config.n - 1 do
      Hashtbl.remove t.early (early_key t ~pp_seq ~voter)
    done

(* Accept a pre-prepare for (view, pp_seq). A later view overrides an
   earlier one (view change re-proposal); counters reset because prepares
   and commits are only meaningful within one view. Early votes for this
   (view, digest) are counted at once; if their commits already form a
   quorum the instance is ordered on return. *)
let accept_pre_prepare t ~now ~view ~pp_seq ~matrix ~pp_sig =
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
      inst.accepted_at <- now;
      inst.prepares <- 0;
      inst.commits <- 0;
      Array.fill inst.commit_auths 0 t.config.Config.n None;
      inst.prepared <- false;
      fold_early t inst ~view ~digest;
      if Voters.count inst.commits >= t.config.Config.quorum then inst.ordered <- true;
      `Accept digest
    end
  end

(* The oldest instances that block execution: have an accepted pre-prepare
   (at or before [accepted_by]) but are not ordered yet. Used for
   ordering-message retransmission so a recovered replica can still
   complete them. *)
let stalled_instances t ~accepted_by ~limit =
  let rec collect pp acc remaining =
    if remaining = 0 || pp > t.max_seen_pp then List.rev acc
    else
      match Hashtbl.find_opt t.instances pp with
      | Some ({ ordered = false; matrix = Some m; digest = Some d; pp_sig = Some s; _ } as inst)
        when inst.accepted_at <= accepted_by ->
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
  match classify t ~view ~pp_seq with
  | `Count ({ digest = Some d; _ } as inst) when String.equal d digest && not inst.ordered ->
      inst.prepares <- Voters.add t.config inst.prepares rep;
      if (not inst.prepared) && Voters.count inst.prepares >= t.config.Config.quorum
      then begin
        inst.prepared <- true;
        true
      end
      else false
  | `Early ->
      keep_early_prepare t ~rep ~view ~pp_seq ~digest;
      false
  | `Count _ | `Drop -> false

(* Count a commit and retain its authenticator for certificate serving;
   returns [true] when the instance just became ordered. The
   authenticator is kept even for an instance that is already ordered:
   those are exactly the ones whose quorum a lagging replica can no
   longer complete from live traffic. *)
let add_commit t ~rep ~view ~pp_seq ~digest auth =
  match classify t ~view ~pp_seq with
  | `Count ({ digest = Some d; _ } as inst) when String.equal d digest ->
      note_commit t inst rep auth;
      if inst.ordered then false
      else begin
        if Voters.count inst.commits >= t.config.Config.quorum then begin
          inst.ordered <- true;
          true
        end
        else false
      end
  | `Early ->
      keep_early_commit t ~rep ~view ~pp_seq ~digest auth;
      false
  | `Count _ | `Drop -> false

(* The self-certifying commit certificate for an ordered instance, once
   enough authenticators have been retained. *)
let ordered_cert t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with
  | Some ({ ordered = true; matrix = Some m; pp_sig = Some s; _ } as inst)
    when Voters.count inst.commits >= t.config.Config.quorum ->
      let commits = ref [] in
      for rep = t.config.Config.n - 1 downto 0 do
        match inst.commit_auths.(rep) with
        | Some a -> commits := (rep, a) :: !commits
        | None -> ()
      done;
      Some (inst.inst_view, m, s, !commits)
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
    inst.prepares <- 0;
    inst.commits <- 0;
    Array.fill inst.commit_auths 0 t.config.Config.n None;
    List.iter (fun (rep, auth) -> note_commit t inst rep auth) commits;
    inst.prepared <- true;
    inst.ordered <- true;
    true
  end

(* Highest ordered instance at or above the execution cursor — the upper
   bound of what we can serve commit certificates for. Instances are
   ordered only once accepted or certified, never above [max_seen_pp]. *)
let max_ordered_seen t =
  let rec down pp =
    if pp < t.next_exec_pp then t.next_exec_pp - 1
    else
      match Hashtbl.find_opt t.instances pp with
      | Some { ordered = true; _ } -> pp
      | Some _ | None -> down (pp - 1)
  in
  down t.max_seen_pp

let is_ordered t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with Some i -> i.ordered | None -> false

let has_pre_prepare t pp_seq =
  match Hashtbl.find_opt t.instances pp_seq with Some i -> Option.is_some i.matrix | None -> false

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
          drop_early t t.next_exec_pp;
          t.next_exec_pp <- t.next_exec_pp + 1;
          walk ()
        end
    | Some _ | None -> ()
  in
  walk ();
  (List.rev !executed, !missing)

(* Prepared-but-not-yet-executed certificates for view-change reports. *)
let prepared_certs t =
  let rec collect pp acc =
    if pp < t.next_exec_pp then acc
    else
      let acc =
        match Hashtbl.find_opt t.instances pp with
        | Some { prepared = true; matrix = Some m; inst_view; _ } ->
            { Msg.pc_seq = pp; pc_view = inst_view; pc_matrix = m } :: acc
        | Some _ | None -> acc
      in
      collect (pp - 1) acc
  in
  collect t.max_seen_pp []

(* Highest pp_seq executed (everything below is reflected in state). *)
let max_executed t = t.next_exec_pp - 1

(* Fast-forward execution cursors after an application-level state
   transfer: the application state already reflects everything up to the
   peer's cursors, so executing those updates again would corrupt it. *)
let install_checkpoint t ~next_exec_pp ~exec_seq ~cursor =
  t.next_exec_pp <- next_exec_pp;
  if Hashtbl.length t.early > 0 then
    Hashtbl.filter_map_inplace
      (fun key e -> if key / t.config.Config.n < next_exec_pp then None else Some e)
      t.early;
  t.exec_seq <- exec_seq;
  Array.blit cursor 0 t.exec_cursor 0 (Array.length t.exec_cursor)
