(* Array-backed binary min-heap: the timer wheel's far-future overflow.

   Ties on the primary key are broken by insertion order (the [seq]
   field), so events parked here keep their schedule order and runs stay
   deterministic. *)

type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  (* Requested pre-size; the backing array cannot be allocated before the
     first entry exists ('a has no dummy value), so it is applied on the
     first push. *)
  initial_capacity : int;
}

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Heap.create: capacity must be positive";
  { data = [||]; size = 0; next_seq = 0; initial_capacity = capacity }

let length t = t.size

let capacity t = Array.length t.data

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  (* The placeholder entry is immediately overwritten; size guards reads. *)
  let dummy = t.data.(0) in
  let data = Array.make new_cap dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~key value =
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.data = 0 then
    t.data <- Array.make t.initial_capacity entry;
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (t.data.(0).key, t.data.(0).value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end
