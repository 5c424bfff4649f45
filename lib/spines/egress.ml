(* Bounded per-neighbor egress queue with priority scheduling and source
   fairness.

   The data plane enqueues every outbound payload here instead of
   transmitting immediately; a flush (driven by the sim clock) drains the
   queue in send order:

   - higher priority bands drain first;
   - within a band, origins are served round-robin (the paper's source
     fairness: a flooding origin cannot monopolise a link even after it
     has been admitted upstream): each step serves the first non-empty
     origin above the band's cursor, wrapping around, and the cursor
     persists across flushes;
   - on overflow the lowest-priority traffic is dropped first: an
     arrival that is itself lowest-priority is rejected, otherwise the
     oldest message of the most-backlogged origin in the lowest band is
     evicted to make room.

   Everything is deterministic: origins are served in sorted circular
   order and eviction victims are chosen by (queue length, origin id),
   never by hash-table iteration order — chaos replay depends on the
   drain order being byte-identical across same-seed runs.

   Layout, chosen so that neither enqueue nor drain allocates beyond the
   list drain returns. The bands sit in an array sorted by priority,
   highest first; each band keeps its origins in an array sorted by id,
   one slot per origin. Messages live in one pool of [capacity] cells
   shared by the whole queue: a slot's FIFO and the free list are chains
   of pool indices through [next]. Emptied slots and bands stay in place,
   so a steady mix of origins and priorities reuses them; once more than
   [capacity] of either are empty, every empty one is dropped, which
   keeps memory O(capacity) under any mix. A dropped band forgets its
   cursor: refilled, it starts again from the lowest origin. *)

type slot = {
  id : int; (* origin *)
  mutable head : int; (* pool index of the oldest message; -1 when empty *)
  mutable tail : int;
  mutable count : int;
}

type band = {
  prio : int;
  mutable slots : slot array; (* sorted by id; [0, n_slots) in use *)
  mutable n_slots : int;
  mutable b_len : int;
  mutable cursor : int; (* origin served last; the next step starts above it *)
}

type 'a t = {
  capacity : int;
  mutable bands : band array; (* sorted by priority, highest first; [0, n_bands) in use *)
  mutable n_bands : int;
  (* [capacity] message cells, then one filler cell holding the first
     message ever enqueued: a freed cell is overwritten with it. So the
     pool keeps no sent message alive except that one, which stays
     reachable for the queue's life ([clear] keeps it too). Empty until
     that first enqueue. *)
  mutable pool : 'a array;
  mutable next : int array; (* per cell: next cell of its FIFO or of the free list *)
  mutable free : int; (* head of the free list; -1 when the pool is full *)
  mutable empty_slots : int;
  mutable empty_bands : int;
  mutable length : int;
  mutable drops : int;
}

type 'a outcome =
  | Enqueued
  | Rejected (* the arrival itself was lowest-priority and the queue is full *)
  | Evicted of 'a (* room was made by dropping this lower-priority message *)

let create ~capacity () =
  if capacity < 1 then invalid_arg "Egress.create: capacity must be >= 1";
  {
    capacity;
    bands = [||];
    n_bands = 0;
    pool = [||];
    next = [||];
    free = -1;
    empty_slots = 0;
    empty_bands = 0;
    length = 0;
    drops = 0;
  }

let length t = t.length

let is_empty t = t.length = 0

let drops t = t.drops

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

(* --- bands and slots ------------------------------------------------------ *)

(* Index of the first band whose priority is <= [prio] (bands are sorted
   highest first), or [n_bands]. *)
let band_index t prio =
  let lo = ref 0 and hi = ref t.n_bands in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.bands.(mid).prio > prio then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first slot whose origin is >= [origin], or [n_slots]. *)
let slot_index band origin =
  let lo = ref 0 and hi = ref band.n_slots in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if band.slots.(mid).id < origin then lo := mid + 1 else hi := mid
  done;
  !lo

(* Inserts [x] at [i] of the first [n] cells of [a], growing it if full. *)
let insert_at a n i x =
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (max 4 (2 * n)) x in
      Array.blit a 0 b 0 n;
      b
    end
  in
  Array.blit a i a (i + 1) (n - i);
  a.(i) <- x;
  a

let band_for t prio =
  let i = band_index t prio in
  if i < t.n_bands && t.bands.(i).prio = prio then t.bands.(i)
  else begin
    let band = { prio; slots = [||]; n_slots = 0; b_len = 0; cursor = min_int } in
    t.bands <- insert_at t.bands t.n_bands i band;
    t.n_bands <- t.n_bands + 1;
    t.empty_bands <- t.empty_bands + 1;
    band
  end

let slot_for t band origin =
  let i = slot_index band origin in
  if i < band.n_slots && band.slots.(i).id = origin then band.slots.(i)
  else begin
    let slot = { id = origin; head = -1; tail = -1; count = 0 } in
    band.slots <- insert_at band.slots band.n_slots i slot;
    band.n_slots <- band.n_slots + 1;
    t.empty_slots <- t.empty_slots + 1;
    slot
  end

(* Drops every empty slot, and every empty band, once more than
   [capacity] of that kind have piled up. *)
let reclaim t =
  if t.empty_bands > t.capacity then begin
    let kept = ref 0 in
    for i = 0 to t.n_bands - 1 do
      let band = t.bands.(i) in
      if band.b_len > 0 then begin
        t.bands.(!kept) <- band;
        incr kept
      end
      else t.empty_slots <- t.empty_slots - band.n_slots
    done;
    t.bands <- Array.sub t.bands 0 !kept;
    t.n_bands <- !kept;
    t.empty_bands <- 0
  end;
  if t.empty_slots > t.capacity then begin
    for b = 0 to t.n_bands - 1 do
      let band = t.bands.(b) in
      let kept = ref 0 in
      for i = 0 to band.n_slots - 1 do
        let slot = band.slots.(i) in
        if slot.count > 0 then begin
          band.slots.(!kept) <- slot;
          incr kept
        end
      done;
      band.slots <- Array.sub band.slots 0 !kept;
      band.n_slots <- !kept
    done;
    t.empty_slots <- 0
  end

let push t band slot msg =
  let cell = alloc_cell t msg in
  if slot.count = 0 then begin
    slot.head <- cell;
    t.empty_slots <- t.empty_slots - 1
  end
  else t.next.(slot.tail) <- cell;
  slot.tail <- cell;
  slot.count <- slot.count + 1;
  if band.b_len = 0 then t.empty_bands <- t.empty_bands - 1;
  band.b_len <- band.b_len + 1;
  t.length <- t.length + 1

(* Pops the slot's oldest message, leaving its cell unreleased: the caller
   releases it. *)
let pop_cell t band slot =
  let cell = slot.head in
  slot.head <- t.next.(cell);
  slot.count <- slot.count - 1;
  if slot.count = 0 then begin
    slot.tail <- -1;
    t.empty_slots <- t.empty_slots + 1
  end;
  band.b_len <- band.b_len - 1;
  if band.b_len = 0 then t.empty_bands <- t.empty_bands + 1;
  t.length <- t.length - 1;
  cell

(* --- enqueue ------------------------------------------------------------------ *)

let lowest_band t =
  let i = ref (t.n_bands - 1) in
  while t.bands.(!i).b_len = 0 do
    decr i
  done;
  t.bands.(!i)

(* The most-backlogged origin of a band (ties toward the higher id). *)
let victim_slot band =
  let best = ref band.slots.(0) in
  for i = 1 to band.n_slots - 1 do
    let slot = band.slots.(i) in
    if slot.count >= !best.count then best := slot
  done;
  !best

let enqueue t ~prio ~origin msg =
  if t.length < t.capacity then begin
    let band = band_for t prio in
    push t band (slot_for t band origin) msg;
    Enqueued
  end
  else begin
    (* capacity >= 1 and length >= capacity imply a non-empty band *)
    let low = lowest_band t in
    t.drops <- t.drops + 1;
    if prio <= low.prio then Rejected
    else begin
      let victim = release_cell t (pop_cell t low (victim_slot low)) in
      let band = band_for t prio in
      push t band (slot_for t band origin) msg;
      reclaim t;
      Evicted victim
    end
  end

(* --- drain ------------------------------------------------------------------------ *)

(* Serves a band to exhaustion, pushing each served cell onto the chain
   [drained] (most recent first, linked through [next]). *)
let drain_band t band drained =
  let i = ref (slot_index band band.cursor) in
  if !i < band.n_slots && band.slots.(!i).id = band.cursor then incr i;
  let drained = ref drained in
  while band.b_len > 0 do
    if !i >= band.n_slots then i := 0;
    let slot = band.slots.(!i) in
    if slot.count > 0 then begin
      let cell = pop_cell t band slot in
      band.cursor <- slot.id;
      t.next.(cell) <- !drained;
      drained := cell
    end;
    incr i
  done;
  !drained

(* Walks the chain newest first, so consing yields send order. *)
let rec collect t acc cell =
  if cell < 0 then acc
  else begin
    let next = t.next.(cell) in
    collect t (release_cell t cell :: acc) next
  end

let drain t =
  let drained = ref (-1) in
  for b = 0 to t.n_bands - 1 do
    let band = t.bands.(b) in
    if band.b_len > 0 then drained := drain_band t band !drained
  done;
  let out = collect t [] !drained in
  reclaim t;
  out

let clear t =
  if Array.length t.pool > 0 then begin
    Array.fill t.pool 0 t.capacity t.pool.(t.capacity);
    reset_free_list t
  end;
  t.bands <- [||];
  t.n_bands <- 0;
  t.empty_slots <- 0;
  t.empty_bands <- 0;
  t.length <- 0
