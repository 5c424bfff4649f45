(* Prime pre-ordering sub-protocol state.

   Each replica assigns its incoming client updates to its own preorder
   sequence and broadcasts PO-Requests; peers acknowledge with PO-Acks.
   A slot is *certified* once 2f + k + 1 distinct replicas (the
   originator's request counting as its endorsement) vouch for the same
   update digest. Certified slots advance the per-origin cumulative
   vector (aru), which replicas exchange as signed PO-Summaries — the raw
   material of the leader's proof matrix.

   This module is pure protocol state: the replica drives it and performs
   all sending/signing.

   Slots and acks are released per origin once they are both executed
   and certified here ([release]); the replica does so at checkpoint
   boundaries. At or below an origin's release point every message is
   stale, and the replica drops it before verification. *)

type slot = {
  mutable update : Msg.Update.t option;
  mutable digest : Crypto.Sha256.digest option;
  mutable endorsers : int; (* voter bit set ([Voters]) vouching for the digest *)
  mutable certified : bool;
}

type t = {
  config : Config.t;
  my_id : int;
  slots : (int * int, slot) Hashtbl.t; (* (origin, po_seq) *)
  mutable next_po_seq : int;
  aru : int array; (* my cumulative certified vector, indexed by origin *)
  floors : int array; (* per-origin reset floor: slots <= floor are void *)
  released : int array; (* per-origin: slots and acks <= it are released *)
  summaries : Msg.summary option array; (* freshest signed summary per replica *)
  acked : (int * int, unit) Hashtbl.t; (* slots I already acked *)
  seen_updates : (string * int, unit) Hashtbl.t; (* client update dedup *)
  mutable dirty : bool; (* aru changed since last summary emission *)
  mutable on_dirty : unit -> unit; (* fires each time [dirty] is set *)
  mutable on_certified : (origin:int -> po_seq:int -> unit) option;
      (* telemetry hook: fires once per slot, whichever message completed
         the quorum (request, ack, or own assignment) *)
}

let create config ~my_id =
  {
    config;
    my_id;
    slots = Hashtbl.create 64;
    next_po_seq = 0;
    aru = Array.make config.Config.n 0;
    floors = Array.make config.Config.n 0;
    released = Array.make config.Config.n 0;
    summaries = Array.make config.Config.n None;
    acked = Hashtbl.create 64;
    seen_updates = Hashtbl.create 64;
    dirty = false;
    on_dirty = ignore;
    on_certified = None;
  }

let set_on_certified t f = t.on_certified <- Some f

let set_on_dirty t f = t.on_dirty <- f

let mark_dirty t =
  t.dirty <- true;
  t.on_dirty ()

let slot_for t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
      let s = { update = None; digest = None; endorsers = 0; certified = false } in
      Hashtbl.replace t.slots key s;
      s

let aru t = Array.copy t.aru

let floor_of t ~origin = t.floors.(origin)

let next_po_seq t = t.next_po_seq

let released t ~origin ~po_seq =
  origin >= 0 && origin < Array.length t.released && po_seq <= t.released.(origin)

(* Executed slots still held: at or below [cursor]. *)
let retained_executed t ~cursor =
  Hashtbl.fold
    (fun (origin, po_seq) _ acc ->
      if origin >= 0 && origin < Array.length cursor && po_seq <= cursor.(origin) then acc + 1 else acc)
    t.slots 0

(* Certification needs no released slot: the cumulative vector already
   passed it. A filter, not a walk over the released range, because an
   origin reset can move the cursor arbitrarily far. *)
let release t ~cursor =
  let moved = ref false in
  Array.iteri
    (fun origin c ->
      let upto = min c t.aru.(origin) in
      if upto > t.released.(origin) then begin
        t.released.(origin) <- upto;
        moved := true
      end)
    cursor;
  if !moved then begin
    let keep (origin, po_seq) = not (released t ~origin ~po_seq) in
    Hashtbl.filter_map_inplace (fun key s -> if keep key then Some s else None) t.slots;
    Hashtbl.filter_map_inplace (fun key () -> if keep key then Some () else None) t.acked
  end

(* A recovered origin restarts its own sequence above anything it may
   have used before (peers learn via the signed Origin_reset). *)
let begin_reset t ~new_start =
  t.next_po_seq <- max t.next_po_seq (new_start - 1);
  t.floors.(t.my_id) <- max t.floors.(t.my_id) (new_start - 1);
  if t.aru.(t.my_id) < t.floors.(t.my_id) then t.aru.(t.my_id) <- t.floors.(t.my_id);
  mark_dirty t

(* Adopt execution-cursor floors from a quorum-backed checkpoint: every
   slot at or below the cursor was executed by a quorum, so this replica
   treats them as settled and resumes contiguous certification above
   them. Without this, a recovered replica's cumulative vector could
   never leave zero (historical slots cannot re-certify). *)
let install_floors t ~cursor =
  let moved = ref false in
  Array.iteri
    (fun origin v ->
      if v > t.floors.(origin) then begin
        t.floors.(origin) <- v;
        if t.aru.(origin) < v then t.aru.(origin) <- v;
        moved := true
      end)
    cursor;
  if !moved then mark_dirty t

(* Apply a (verified) origin reset: void the gap below [new_start] and let
   the cumulative vector jump over it. *)
let apply_origin_reset t ~origin ~new_start =
  let floor = new_start - 1 in
  if floor > t.floors.(origin) then begin
    t.floors.(origin) <- floor;
    let before = t.aru.(origin) in
    if t.aru.(origin) < floor then t.aru.(origin) <- floor;
    (* Slots above the floor may already be certified. *)
    let rec advance () =
      let next = t.aru.(origin) + 1 in
      match Hashtbl.find_opt t.slots (origin, next) with
      | Some s when s.certified ->
          t.aru.(origin) <- next;
          advance ()
      | Some _ | None -> ()
    in
    advance ();
    if t.aru.(origin) > before then mark_dirty t;
    true
  end
  else false

let dirty t = t.dirty

let clear_dirty t = t.dirty <- false

(* Force a summary emission (used right after a recovery restart so that
   mutually-recovered replicas can exchange vectors and re-base even when
   nothing has certified yet). *)
let force_dirty t = mark_dirty t

let seen_update t u = Hashtbl.mem t.seen_updates (Msg.Update.key u)

let note_update t u = Hashtbl.replace t.seen_updates (Msg.Update.key u) ()

(* Advance origin's cumulative counter over contiguously certified slots. *)
let advance_aru t origin =
  let before = t.aru.(origin) in
  let rec loop () =
    let next = t.aru.(origin) + 1 in
    match Hashtbl.find_opt t.slots (origin, next) with
    | Some s when s.certified ->
        t.aru.(origin) <- next;
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  if t.aru.(origin) > before then mark_dirty t

let endorse t slot voter = slot.endorsers <- Voters.add t.config slot.endorsers voter

let check_certified t ~origin key slot =
  if (not slot.certified) && Voters.count slot.endorsers >= t.config.Config.quorum then begin
    slot.certified <- true;
    advance_aru t origin;
    match t.on_certified with
    | Some f -> f ~origin ~po_seq:(snd key)
    | None -> ()
  end

(* Assign one of my client updates to my next preorder slot; returns the
   sequence the PO-Request should carry. The request itself is my
   endorsement. *)
let assign t update =
  t.next_po_seq <- t.next_po_seq + 1;
  let po_seq = t.next_po_seq in
  let slot = slot_for t (t.my_id, po_seq) in
  slot.update <- Some update;
  slot.digest <- Some (Msg.Update.digest update);
  endorse t slot t.my_id;
  note_update t update;
  check_certified t ~origin:t.my_id (t.my_id, po_seq) slot;
  po_seq

(* Returns [`Ack digest] when this replica should broadcast a PO-Ack. *)
let receive_request t ~origin ~po_seq update =
  let key = (origin, po_seq) in
  let slot = slot_for t key in
  let digest = Msg.Update.digest update in
  match slot.digest with
  | Some existing when not (String.equal existing digest) ->
      (* Conflicting request for the same slot: a faulty origin. Keep the
         first; never ack the conflict. *)
      `Conflict
  | _ ->
      slot.update <- Some update;
      slot.digest <- Some digest;
      endorse t slot origin;
      note_update t update;
      check_certified t ~origin key slot;
      if Hashtbl.mem t.acked key then `Already_acked digest
      else begin
        Hashtbl.replace t.acked key ();
        endorse t slot t.my_id;
        check_certified t ~origin key slot;
        `Ack digest
      end

let receive_ack t ~acker ~origin ~po_seq ~digest =
  let key = (origin, po_seq) in
  let slot = slot_for t key in
  match slot.digest with
  | Some existing when not (String.equal existing digest) -> () (* ack for a conflict *)
  | Some _ ->
      endorse t slot acker;
      check_certified t ~origin key slot
  | None ->
      (* Ack arrived before the request; remember the endorsement and the
         digest it vouches for. *)
      slot.digest <- Some digest;
      endorse t slot acker;
      check_certified t ~origin key slot

(* Keep the freshest summary per replica (component sums are monotone for
   honest senders, so a larger sum means fresher). Returns whether [s]
   was stored. *)
let receive_summary t (s : Msg.summary) =
  let sum a = Array.fold_left ( + ) 0 a in
  let fresher =
    match t.summaries.(s.Msg.sum_rep) with
    | None -> true
    | Some old -> sum s.Msg.aru > sum old.Msg.aru
  in
  if fresher then t.summaries.(s.Msg.sum_rep) <- Some s;
  fresher

let stored_summary t rep = t.summaries.(rep)

(* The proof matrix a leader would propose right now: peers' freshest
   summaries plus my own current vector (signed by the caller). *)
let matrix t ~my_summary : Msg.matrix =
  let m = Array.copy t.summaries in
  m.(t.my_id) <- Some my_summary;
  m

(* Eligibility: update (origin, s) may be executed once at least
   2f + k + 1 summaries in the matrix report aru.(origin) >= s — i.e. the
   quorum-th largest value in the origin's column: the largest entry that
   a quorum of entries reach. Counted in place (n <= 11), with no list and
   no sort. *)
let column_entry (m : Msg.matrix) row ~origin =
  match m.(row) with Some s -> s.Msg.aru.(origin) | None -> -1

let eligible_up_to config (m : Msg.matrix) ~origin =
  let best = ref 0 in
  for row = 0 to Array.length m - 1 do
    let v = column_entry m row ~origin in
    if v > !best then begin
      let reach = ref 0 in
      for other = 0 to Array.length m - 1 do
        if column_entry m other ~origin >= v then incr reach
      done;
      if !reach >= config.Config.quorum then best := v
    end
  done;
  !best

(* Would the matrix I could propose now (stored summaries plus my own
   vector) make more eligible than [eligible] records, for some origin?
   True when a quorum of an origin's column entries exceed its mark. *)
let advances t ~eligible =
  let n = Array.length t.summaries in
  let found = ref false and origin = ref 0 in
  while (not !found) && !origin < n do
    let o = !origin in
    let above = ref 0 in
    for row = 0 to n - 1 do
      let v = if row = t.my_id then t.aru.(o) else column_entry t.summaries row ~origin:o in
      if v > eligible.(o) then incr above
    done;
    found := !above >= t.config.Config.quorum;
    incr origin
  done;
  !found

(* Do f + 1 peers' stored summaries certify [origin] past [executed] (or
   past its reset floor, whichever is higher)? At least one of them is
   honest, so some update I have not executed exists. Counted in place:
   it runs on every catchup tick. *)
let peers_ahead t ~origin ~executed =
  let mark = max executed t.floors.(origin) in
  let ahead = ref 0 in
  for row = 0 to Array.length t.summaries - 1 do
    if row <> t.my_id && column_entry t.summaries row ~origin > mark then incr ahead
  done;
  !ahead >= t.config.Config.f + 1

let aru_equals t a =
  let same = ref (Array.length a = Array.length t.aru) in
  for i = 0 to Array.length a - 1 do
    if !same && a.(i) <> t.aru.(i) then same := false
  done;
  !same

(* Store an update body fetched through reconciliation. No endorsement is
   added: the body is only accepted if it matches the digest the slot was
   certified (or acked) under, or fills an empty slot whose eligibility
   was already proven through the ordered matrix. *)
let store_body t ~origin ~po_seq update =
  let slot = slot_for t (origin, po_seq) in
  let digest = Msg.Update.digest update in
  match slot.digest with
  | Some existing when not (String.equal existing digest) -> `Mismatch
  | Some _ | None ->
      slot.update <- Some update;
      slot.digest <- Some digest;
      note_update t update;
      `Stored

let update_for t ~origin ~po_seq =
  match Hashtbl.find_opt t.slots (origin, po_seq) with
  | Some { update = Some u; _ } -> Some u
  | Some _ | None -> None
