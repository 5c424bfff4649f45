(* Hierarchical timer wheel: the engine's event queue for the dominant
   short-horizon timers (hello/poll/retransmit/batch-window), with a
   small overflow heap for far-future events.

   Layout. L0 has 256 buckets of 2^-10 s (~0.98 ms) granularity — a
   quarter second of fine-grained span. L1 has 256 buckets of L0-span
   width (~0.25 s) covering the next ~64 s, which catches every periodic
   protocol timer (summary/pre-prepare/reconcile/catchup/refresh).
   Anything further out sits in an overflow heap and migrates inward
   when the cursor approaches. The bucket that is currently due is
   materialized into a small "active" binary heap ordered by
   (time, stamp), so pop order is exactly the (key, insertion-seq) order
   of a plain binary heap — the tie-break contract the observation-
   passivity guarantee depends on.

   Allocation. Events live in a slab: parallel arrays of time/stamp/
   thunk/next indexed by cell. A free list threads through [next], so a
   schedule→execute cycle touches no allocator once the slab has grown
   to the working-set size (the returned event id is an immediate int —
   [stamp lsl 24 lor cell] — and carries the stamp that makes stale
   cancels of a recycled cell harmless). The slab is lazily allocated on
   first use and sized by [hint], like {!Heap}. *)

let l0_bits = 8

let l0_size = 1 lsl l0_bits (* 256 fine buckets *)

let l1_size = 256

let tick_bits = 10 (* granularity: 2^-10 s per L0 tick *)

let ticks_per_sec = float_of_int (1 lsl tick_bits)

let cell_bits = 24 (* slab index field of a packed event id *)

let max_cells = 1 lsl cell_bits

let tick0_of time = int_of_float (time *. ticks_per_sec)

type t = {
  (* Slab of event cells (parallel arrays, grown together). *)
  mutable time : float array;
  mutable stamp : int array; (* -1 = free *)
  mutable thunk : (unit -> unit) array;
  mutable next : int array; (* bucket chain / free list; -1 = end *)
  mutable cancelled : Bytes.t;
  mutable free_head : int;
  initial_capacity : int;
  (* Wheels: bucket heads into the slab, -1 = empty. *)
  l0 : int array;
  l1 : int array;
  mutable l0_count : int;
  mutable l1_count : int;
  (* All L0 ticks <= cur0 have been drained into [active]. *)
  mutable cur0 : int;
  (* L0 holds only ticks of the aligned 256-tick window of L1 bucket
     [cur1] (already cascaded, so L1 slot [cur1] is empty). Keeping the
     window aligned — rather than sliding with cur0 — is what makes
     placement monotone: a late schedule can never land in L0 ahead of
     an older event still parked in L1. *)
  mutable cur1 : int;
  (* Active bucket as a mini-heap of cells ordered by (time, stamp). *)
  mutable active : int array;
  mutable active_len : int;
  (* Far-future events: (time, cell); Heap's own insertion-seq tie-break
     equals stamp order because pushes happen in schedule order. *)
  overflow : int Heap.t;
  mutable pending : int;
  mutable cancelled_backlog : int;
  mutable next_stamp : int;
}

let create ?(hint = 16) () =
  {
    time = [||];
    stamp = [||];
    thunk = [||];
    next = [||];
    cancelled = Bytes.empty;
    free_head = -1;
    initial_capacity = max 1 hint;
    l0 = Array.make l0_size (-1);
    l1 = Array.make l1_size (-1);
    l0_count = 0;
    l1_count = 0;
    cur0 = -1;
    cur1 = 0;
    active = [||];
    active_len = 0;
    overflow = Heap.create ~capacity:(max 1 (hint / 8)) ();
    pending = 0;
    cancelled_backlog = 0;
    next_stamp = 0;
  }

let length t = t.pending

let cancelled_backlog t = t.cancelled_backlog

let capacity t = Array.length t.time

let nop () = ()

(* --- slab ---------------------------------------------------------------- *)

let grow_slab t =
  let old = Array.length t.time in
  let cap = if old = 0 then t.initial_capacity else old * 2 in
  if cap > max_cells then failwith "Wheel: event population exceeds 2^24 cells";
  let time = Array.make cap 0.0
  and stamp = Array.make cap (-1)
  and thunk = Array.make cap nop
  and next = Array.make cap (-1)
  and cancelled = Bytes.make cap '\000' in
  Array.blit t.time 0 time 0 old;
  Array.blit t.stamp 0 stamp 0 old;
  Array.blit t.thunk 0 thunk 0 old;
  Array.blit t.next 0 next 0 old;
  Bytes.blit t.cancelled 0 cancelled 0 old;
  t.time <- time;
  t.stamp <- stamp;
  t.thunk <- thunk;
  t.next <- next;
  t.cancelled <- cancelled;
  (* Thread the new tail onto the free list. *)
  for i = cap - 1 downto old do
    t.next.(i) <- t.free_head;
    t.free_head <- i
  done

let alloc_cell t =
  if t.free_head < 0 then grow_slab t;
  let c = t.free_head in
  t.free_head <- t.next.(c);
  t.next.(c) <- -1;
  c

let free_cell t c =
  t.stamp.(c) <- -1;
  t.thunk.(c) <- nop;
  Bytes.unsafe_set t.cancelled c '\000';
  t.next.(c) <- t.free_head;
  t.free_head <- c

(* --- active mini-heap: cells ordered by (time, stamp) -------------------- *)

let cell_less t a b =
  t.time.(a) < t.time.(b) || (t.time.(a) = t.time.(b) && t.stamp.(a) < t.stamp.(b))

let active_push t c =
  if t.active_len = Array.length t.active then begin
    let cap = if t.active_len = 0 then 16 else t.active_len * 2 in
    let arr = Array.make cap (-1) in
    Array.blit t.active 0 arr 0 t.active_len;
    t.active <- arr
  end;
  t.active.(t.active_len) <- c;
  t.active_len <- t.active_len + 1;
  let i = ref (t.active_len - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if cell_less t t.active.(!i) t.active.(parent) then begin
      let tmp = t.active.(!i) in
      t.active.(!i) <- t.active.(parent);
      t.active.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let active_pop t =
  let top = t.active.(0) in
  t.active_len <- t.active_len - 1;
  if t.active_len > 0 then begin
    t.active.(0) <- t.active.(t.active_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.active_len && cell_less t t.active.(l) t.active.(!smallest) then smallest := l;
      if r < t.active_len && cell_less t t.active.(r) t.active.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.active.(!i) in
        t.active.(!i) <- t.active.(!smallest);
        t.active.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* --- insertion ----------------------------------------------------------- *)

(* Place a cell by its tick relative to the aligned cursor windows. The
   wheel invariants keep one lap per bucket: a bucket only ever holds
   ticks within the cursor's current window, so no lap tags are needed.
   Invariant used: cur0 >= cur1*256 - 1, so tk0 > cur0 implies
   tk1 >= cur1. *)
let place t c =
  let tk0 = tick0_of t.time.(c) in
  if tk0 <= t.cur0 then active_push t c
  else begin
    let tk1 = tk0 asr l0_bits in
    if tk1 = t.cur1 then begin
      let slot = tk0 land (l0_size - 1) in
      t.next.(c) <- t.l0.(slot);
      t.l0.(slot) <- c;
      t.l0_count <- t.l0_count + 1
    end
    else if tk1 - t.cur1 <= l1_size - 1 then begin
      let slot = tk1 land (l1_size - 1) in
      t.next.(c) <- t.l1.(slot);
      t.l1.(slot) <- c;
      t.l1_count <- t.l1_count + 1
    end
    else Heap.push t.overflow ~key:t.time.(c) c
  end

let schedule t ~time thunk =
  let c = alloc_cell t in
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  t.time.(c) <- time;
  t.stamp.(c) <- stamp;
  t.thunk.(c) <- thunk;
  place t c;
  t.pending <- t.pending + 1;
  (stamp lsl cell_bits) lor c

(* --- cancellation -------------------------------------------------------- *)

(* Lazy: the cell stays where it is and is skipped when popped. The
   packed stamp makes cancels of already-executed (recycled or
   still-free) cells no-ops. *)
let cancel t id =
  let c = id land (max_cells - 1) in
  if
    c < Array.length t.stamp
    && t.stamp.(c) = id asr cell_bits
    && Bytes.unsafe_get t.cancelled c = '\000'
  then begin
    Bytes.unsafe_set t.cancelled c '\001';
    t.cancelled_backlog <- t.cancelled_backlog + 1
  end

(* --- cursor advance ------------------------------------------------------ *)

let drain_bucket_l0 t slot =
  let c = ref t.l0.(slot) in
  t.l0.(slot) <- -1;
  while !c >= 0 do
    let n = t.next.(!c) in
    t.next.(!c) <- -1;
    t.l0_count <- t.l0_count - 1;
    active_push t !c;
    c := n
  done

(* Cascade one L1 bucket into L0: every cell's tick lands in the fresh
   L0 window [u*256, (u+1)*256), distinct slots by construction. *)
let cascade_l1 t u =
  let slot1 = u land (l1_size - 1) in
  let c = ref t.l1.(slot1) in
  t.l1.(slot1) <- -1;
  t.cur0 <- (u lsl l0_bits) - 1;
  t.cur1 <- u;
  while !c >= 0 do
    let n = t.next.(!c) in
    let tk0 = tick0_of t.time.(!c) in
    t.l1_count <- t.l1_count - 1;
    if tk0 <= t.cur0 then active_push t !c
    else begin
      let slot = tk0 land (l0_size - 1) in
      t.next.(!c) <- t.l0.(slot);
      t.l0.(slot) <- !c;
      t.l0_count <- t.l0_count + 1
    end;
    c := n
  done

(* Both wheels empty: jump the cursor straight to the overflow's
   earliest event; the caller's migration pass then pulls in everything
   that landed inside the fresh window. *)
let refill_from_overflow t =
  match Heap.peek t.overflow with
  | None -> ()
  | Some (time, _) ->
      t.cur0 <- tick0_of time - 1;
      t.cur1 <- t.cur0 asr l0_bits

(* Overflow entries whose tick has entered the L1 window must migrate
   before any bucket advance: the cursor may have moved since they were
   parked, and draining a later bucket first would violate time order. *)
let migrate_due_overflow t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.overflow with
    | Some (_, c) when (tick0_of t.time.(c) asr l0_bits) - t.cur1 <= l1_size - 1 ->
        ignore (Heap.pop t.overflow);
        place t c
    | Some _ | None -> continue := false
  done

let ensure_active t =
  while t.active_len = 0 && t.pending > 0 do
    migrate_due_overflow t;
    if t.l0_count > 0 then begin
      (* Next non-empty fine bucket within the L0 window. *)
      let found = ref false in
      let tk = ref (t.cur0 + 1) in
      while not !found do
        let slot = !tk land (l0_size - 1) in
        if t.l0.(slot) >= 0 then begin
          t.cur0 <- !tk;
          drain_bucket_l0 t slot;
          found := true
        end
        else incr tk
      done
    end
    else if t.l1_count > 0 then begin
      let found = ref false in
      let u = ref (t.cur1 + 1) in
      while not !found do
        if t.l1.(!u land (l1_size - 1)) >= 0 then begin
          cascade_l1 t !u;
          found := true
        end
        else incr u
      done
    end
    else refill_from_overflow t
  done

(* --- pop/peek ------------------------------------------------------------ *)

let peek t =
  ensure_active t;
  if t.active_len = 0 then None else Some t.time.(t.active.(0))

type popped = Empty | Cancelled of float | Event of float * (unit -> unit)

let pop t =
  ensure_active t;
  if t.active_len = 0 then Empty
  else begin
    let c = active_pop t in
    let time = t.time.(c) and thunk = t.thunk.(c) in
    let was_cancelled = Bytes.unsafe_get t.cancelled c = '\001' in
    t.pending <- t.pending - 1;
    free_cell t c;
    if was_cancelled then begin
      t.cancelled_backlog <- t.cancelled_backlog - 1;
      Cancelled time
    end
    else Event (time, thunk)
  end
