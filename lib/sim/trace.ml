(* Structured simulation trace.

   Subsystems record (time, category, message) entries. Experiments read
   the trace back to build narrative output (e.g. the red-team attack log)
   and tests assert on it. Nothing is echoed, so property tests running
   thousands of simulations stay quiet.

   Storage is a flat array: unbounded runs grow it geometrically, while a
   [?capacity] turns it into a ring so that multi-day plant deployments
   (E5) keep only the newest entries. [length] always reports the total
   ever recorded, ring or not. *)

type entry = { time : float; category : string; message : string }

type t = {
  mutable buf : entry array;
  mutable len : int; (* live entries in [buf] *)
  mutable start : int; (* ring read position (0 unless bounded and full) *)
  capacity : int option;
  mutable total : int; (* entries ever recorded *)
}

let dummy = { time = 0.0; category = ""; message = "" }

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  let initial = match capacity with Some c -> Stdlib.min c 64 | None -> 64 in
  { buf = Array.make initial dummy; len = 0; start = 0; capacity; total = 0 }

let grow t =
  let cap = Array.length t.buf in
  let target =
    match t.capacity with Some c -> Stdlib.min c (cap * 2) | None -> cap * 2
  in
  if target > cap then begin
    let buf = Array.make target dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let push t entry =
  (match t.capacity with
  | Some c when t.len = c ->
      (* Full ring: overwrite the oldest slot. *)
      t.buf.(t.start) <- entry;
      t.start <- (t.start + 1) mod c
  | _ ->
      if t.len = Array.length t.buf then grow t;
      let c = Array.length t.buf in
      t.buf.((t.start + t.len) mod c) <- entry;
      t.len <- t.len + 1);
  t.total <- t.total + 1

let record t ~time ~category fmt =
  Format.kasprintf (fun message -> push t { time; category; message }) fmt

(* Chronological fold over the live window. *)
let fold t ~init ~f =
  let cap = Array.length t.buf in
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.buf.((t.start + i) mod cap)
  done;
  !acc

let entries t = List.rev (fold t ~init:[] ~f:(fun acc e -> e :: acc))

let length t = t.total

let retained t = t.len

let by_category t category =
  List.rev
    (fold t ~init:[] ~f:(fun acc e ->
         if String.equal e.category category then e :: acc else acc))

let find t ~category ~contains =
  let cap = Array.length t.buf in
  let rec go i =
    if i >= t.len then None
    else
      let e = t.buf.((t.start + i) mod cap) in
      if String.equal e.category category && Strx.contains ~needle:contains e.message
      then Some e
      else go (i + 1)
  in
  go 0
