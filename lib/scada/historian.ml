(* SCADA historian (the PI server of the testbed's enterprise network).

   Append-only archive of system events held in a growable array: [record]
   is amortized O(1), [events] materializes without reversing a list,
   [since] binary-searches the time index (recorded times never
   decrease: every caller stamps with the simulation clock), and
   [by_kind] scans once without rebuilding the archive.

   The paper's Section III-A points out an asymmetry: unlike the masters'
   view of the *active* system state, which can be rebuilt from the field
   devices after an assumption breach, historical records cannot be
   recovered from anywhere — whatever was lost is lost. [wipe] models
   exactly that. *)

type event = { time : float; source : string; kind : string; detail : string }

type t = { mutable arr : event array; mutable count : int; mutable lost : int }

let placeholder = { time = 0.0; source = ""; kind = ""; detail = "" }

let create () = { arr = [||]; count = 0; lost = 0 }

let record t ~time ~source ~kind ~detail =
  if t.count > 0 && time < t.arr.(t.count - 1).time then
    invalid_arg "Historian.record: time below the last recorded";
  if t.count = Array.length t.arr then begin
    let grown = Array.make (max 16 (2 * t.count)) placeholder in
    Array.blit t.arr 0 grown 0 t.count;
    t.arr <- grown
  end;
  t.arr.(t.count) <- { time; source; kind; detail };
  t.count <- t.count + 1

let events t = Array.to_list (Array.sub t.arr 0 t.count)

let length t = t.count

(* First index with time >= [time]. *)
let lower_bound t time =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.arr.(mid).time < time then lo := mid + 1 else hi := mid
  done;
  !lo

let since t time =
  let from = lower_bound t time in
  Array.to_list (Array.sub t.arr from (t.count - from))

let by_kind t kind =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    if String.equal t.arr.(i).kind kind then acc := t.arr.(i) :: !acc
  done;
  !acc

(* Assumption breach: archived history is unrecoverable, in contrast to
   the masters' ground-truth-rebuildable state. *)
let wipe t =
  t.lost <- t.lost + t.count;
  t.arr <- [||];
  t.count <- 0

let lost_events t = t.lost
