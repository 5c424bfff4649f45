(* Bounded per-neighbor egress queue with source fairness.

   The data plane enqueues every outbound payload here instead of
   transmitting immediately; a flush (driven by the sim clock) drains the
   queue in send order:

   - origins are served round-robin (the paper's source fairness: a
     flooding origin cannot monopolise a link even after it has been
     admitted upstream): each step serves the first non-empty origin
     above the cursor, wrapping around, and the cursor persists across
     flushes;
   - a full queue refuses the arrival and keeps what it holds.

   Everything is deterministic: origins are served in sorted circular
   order, never by hash-table iteration order — chaos replay depends on
   the drain order being byte-identical across same-seed runs.

   Layout, chosen so that neither enqueue nor drain allocates beyond the
   list drain returns. The origins sit in an array sorted by id, one slot
   per origin. Messages live in one pool of [capacity] cells: a slot's
   FIFO and the free list are chains of pool indices through [next].
   Emptied slots stay in place, so a steady mix of origins reuses them;
   once more than [capacity] are empty, every empty one is dropped, which
   keeps memory O(capacity) under any mix. *)

type slot = {
  id : int; (* origin *)
  mutable head : int; (* pool index of the oldest message; -1 when empty *)
  mutable tail : int;
  mutable count : int;
}

type 'a t = {
  capacity : int;
  mutable slots : slot array; (* sorted by id; [0, n_slots) in use *)
  mutable n_slots : int;
  mutable cursor : int; (* origin served last; the next step starts above it *)
  (* [capacity] message cells, then one filler cell holding the first
     message ever enqueued: a freed cell is overwritten with it. So the
     pool keeps no sent message alive except that one, which stays
     reachable for the queue's life ([clear] keeps it too). Empty until
     that first enqueue. *)
  mutable pool : 'a array;
  mutable next : int array; (* per cell: next cell of its FIFO or of the free list *)
  mutable free : int; (* head of the free list; -1 when the pool is full *)
  mutable empty_slots : int;
  mutable length : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Egress.create: capacity must be >= 1";
  {
    capacity;
    slots = [||];
    n_slots = 0;
    cursor = min_int;
    pool = [||];
    next = [||];
    free = -1;
    empty_slots = 0;
    length = 0;
  }

let length t = t.length

(* --- the message pool --------------------------------------------------- *)

let reset_free_list t =
  for i = 0 to t.capacity - 1 do
    t.next.(i) <- i + 1
  done;
  t.next.(t.capacity - 1) <- -1;
  t.free <- 0

let alloc_cell t msg =
  if Array.length t.pool = 0 then begin
    t.pool <- Array.make (t.capacity + 1) msg;
    t.next <- Array.make t.capacity 0;
    reset_free_list t
  end;
  let i = t.free in
  t.free <- t.next.(i);
  t.pool.(i) <- msg;
  t.next.(i) <- -1;
  i

(* Returns the cell's message and puts the cell back on the free list. *)
let release_cell t i =
  let msg = t.pool.(i) in
  t.pool.(i) <- t.pool.(t.capacity);
  t.next.(i) <- t.free;
  t.free <- i;
  msg

(* --- slots ---------------------------------------------------------------- *)

(* Index of the first slot whose origin is >= [origin], or [n_slots]. *)
let slot_index t origin =
  let lo = ref 0 and hi = ref t.n_slots in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.slots.(mid).id < origin then lo := mid + 1 else hi := mid
  done;
  !lo

let slot_for t origin =
  let i = slot_index t origin in
  if i < t.n_slots && t.slots.(i).id = origin then t.slots.(i)
  else begin
    let slot = { id = origin; head = -1; tail = -1; count = 0 } in
    if t.n_slots = Array.length t.slots then begin
      let grown = Array.make (max 4 (2 * t.n_slots)) slot in
      Array.blit t.slots 0 grown 0 t.n_slots;
      t.slots <- grown
    end;
    Array.blit t.slots i t.slots (i + 1) (t.n_slots - i);
    t.slots.(i) <- slot;
    t.n_slots <- t.n_slots + 1;
    t.empty_slots <- t.empty_slots + 1;
    slot
  end

(* Drops every empty slot once more than [capacity] have piled up. *)
let reclaim t =
  if t.empty_slots > t.capacity then begin
    let kept = ref 0 in
    for i = 0 to t.n_slots - 1 do
      let slot = t.slots.(i) in
      if slot.count > 0 then begin
        t.slots.(!kept) <- slot;
        incr kept
      end
    done;
    t.slots <- Array.sub t.slots 0 !kept;
    t.n_slots <- !kept;
    t.empty_slots <- 0
  end

(* Pops the slot's oldest message, leaving its cell unreleased: the caller
   releases it. *)
let pop_cell t slot =
  let cell = slot.head in
  slot.head <- t.next.(cell);
  slot.count <- slot.count - 1;
  if slot.count = 0 then begin
    slot.tail <- -1;
    t.empty_slots <- t.empty_slots + 1
  end;
  t.length <- t.length - 1;
  cell

(* --- enqueue and drain ------------------------------------------------------- *)

let enqueue t ~origin msg =
  if t.length >= t.capacity then false
  else begin
    let slot = slot_for t origin in
    let cell = alloc_cell t msg in
    if slot.count = 0 then begin
      slot.head <- cell;
      t.empty_slots <- t.empty_slots - 1
    end
    else t.next.(slot.tail) <- cell;
    slot.tail <- cell;
    slot.count <- slot.count + 1;
    t.length <- t.length + 1;
    true
  end

(* Walks the chain newest first, so consing yields send order. *)
let rec collect t acc cell =
  if cell < 0 then acc
  else begin
    let next = t.next.(cell) in
    collect t (release_cell t cell :: acc) next
  end

(* Serves the queue to exhaustion, pushing each served cell onto a chain
   (most recent first, linked through [next]) that [collect] turns into
   the send-order list. *)
let drain t =
  let i = ref (slot_index t t.cursor) in
  if !i < t.n_slots && t.slots.(!i).id = t.cursor then incr i;
  let drained = ref (-1) in
  while t.length > 0 do
    if !i >= t.n_slots then i := 0;
    let slot = t.slots.(!i) in
    if slot.count > 0 then begin
      let cell = pop_cell t slot in
      t.cursor <- slot.id;
      t.next.(cell) <- !drained;
      drained := cell
    end;
    incr i
  done;
  let out = collect t [] !drained in
  reclaim t;
  out

let clear t =
  if Array.length t.pool > 0 then begin
    Array.fill t.pool 0 t.capacity t.pool.(t.capacity);
    reset_free_list t
  end;
  t.slots <- [||];
  t.n_slots <- 0;
  t.cursor <- min_int;
  t.empty_slots <- 0;
  t.length <- 0
