(* SCADA historian (the PI server of the testbed's enterprise network).

   Append-only archive of system events held in a growable array: [record]
   is amortized O(1), [events] materializes without reversing a list,
   [since] binary-searches the (normally monotone) time index, and
   [by_kind] scans once without rebuilding the archive.

   The paper's Section III-A points out an asymmetry: unlike the masters'
   view of the *active* system state, which can be rebuilt from the field
   devices after an assumption breach, historical records cannot be
   recovered from anywhere — whatever was lost is lost. [wipe] models
   exactly that for a plain historian. A historian backed by a durable
   device ([attach_store]) narrows the loss to the unsynced tail: the
   fsynced WAL prefix survives the breach and is replayed back. *)

type event = { time : float; source : string; kind : string; detail : string }

type t = {
  mutable arr : event array;
  mutable count : int;
  mutable lost : int;
  mutable recovered : int;
  (* [since] can only binary-search while recorded times are monotone;
     out-of-order input drops to a linear filter. *)
  mutable sorted_by_time : bool;
  mutable store : (Store.Media.t * Store.Wal.t) option;
}

let placeholder = { time = 0.0; source = ""; kind = ""; detail = "" }

let create () =
  {
    arr = [||];
    count = 0;
    lost = 0;
    recovered = 0;
    sorted_by_time = true;
    store = None;
  }

let ensure_capacity t =
  if t.count = Array.length t.arr then begin
    let cap = max 16 (2 * Array.length t.arr) in
    let grown = Array.make cap placeholder in
    Array.blit t.arr 0 grown 0 t.count;
    t.arr <- grown
  end

let push t e =
  ensure_capacity t;
  if t.count > 0 && e.time < t.arr.(t.count - 1).time then t.sorted_by_time <- false;
  t.arr.(t.count) <- e;
  t.count <- t.count + 1

let encode_event e =
  Wire.encode ~size_hint:(32 + String.length e.detail) (fun b ->
      Wire.w_f64 b e.time;
      Wire.w_str b e.source;
      Wire.w_str b e.kind;
      Wire.w_str b e.detail)

let decode_event payload =
  let r = Wire.reader payload in
  let time = Wire.r_f64 r in
  let source = Wire.r_str r in
  let kind = Wire.r_str r in
  let detail = Wire.r_str r in
  { time; source; kind; detail }

let record t ~time ~source ~kind ~detail =
  let e = { time; source; kind; detail } in
  push t e;
  match t.store with
  | None -> ()
  | Some (_, wal) -> Store.Wal.append wal (encode_event e)

let events t = Array.to_list (Array.sub t.arr 0 t.count)

let length t = t.count

(* First index with time >= [time], by binary search over the monotone
   prefix invariant. *)
let lower_bound t time =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.arr.(mid).time < time then lo := mid + 1 else hi := mid
  done;
  !lo

let since t time =
  if t.sorted_by_time then begin
    let from = lower_bound t time in
    Array.to_list (Array.sub t.arr from (t.count - from))
  end
  else
    (* Out-of-order history: fall back to the scan the old list-based
       historian performed. *)
    List.filter (fun e -> e.time >= time) (events t)

let by_kind t kind =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    if String.equal t.arr.(i).kind kind then acc := t.arr.(i) :: !acc
  done;
  !acc

let attach_store t media =
  let wal = Store.Wal.create ~prefix:"hist" media in
  t.store <- Some (media, wal);
  (* A device that already holds history (process restart) repopulates
     the in-memory archive. *)
  let replayed = Store.Wal.replay wal ~f:(fun payload -> push t (decode_event payload)) in
  t.recovered <- t.recovered + replayed

(* Assumption breach. Plain historian: archived history is unrecoverable,
   in contrast to the masters' ground-truth-rebuildable state. Store-backed
   historian: the breach destroys the process and the device's unsynced
   tail; the fsynced prefix replays back, so only the tail is lost. *)
let wipe t =
  match t.store with
  | None ->
      t.lost <- t.lost + t.count;
      t.arr <- [||];
      t.count <- 0;
      t.sorted_by_time <- true
  | Some (media, wal) ->
      let before = t.count in
      t.arr <- [||];
      t.count <- 0;
      t.sorted_by_time <- true;
      Store.Media.crash media;
      let replayed = Store.Wal.replay wal ~f:(fun payload -> push t (decode_event payload)) in
      t.lost <- t.lost + max 0 (before - replayed);
      t.recovered <- t.recovered + replayed

let lost_events t = t.lost

let recovered_events t = t.recovered
