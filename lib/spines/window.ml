(* Sliding-window (origin, seq) deduplication.

   A flat (origin, seq) table never forgets, so a long-running daemon's
   dedup state grows linearly with traffic. Sequence numbers from one
   origin are monotone, so only a bounded horizon below the highest seen
   sequence can still produce legitimate late duplicates: everything
   below [highest - span] is evicted and treated as a stale duplicate if
   it ever reappears (a replay, by definition of the horizon). *)

type origin_state = {
  mutable floor : int; (* seqs <= floor are forgotten: stale by definition *)
  mutable highest : int;
  seen : (int, unit) Hashtbl.t;
}

type t = {
  span : int;
  origins : (int, origin_state) Hashtbl.t;
  mutable evictions : int;
}

let create ?(span = 4096) () =
  if span < 1 then invalid_arg "Window.create: span must be >= 1";
  { span; origins = Hashtbl.create 64; evictions = 0 }

(* An origin's state starts with this floor: a never-seen origin's
   sequences at or below it are already stale. *)
let initial_floor = 0

let state_for t origin =
  match Hashtbl.find_opt t.origins origin with
  | Some s -> s
  | None ->
      let s = { floor = initial_floor; highest = 0; seen = Hashtbl.create 64 } in
      Hashtbl.replace t.origins origin s;
      s

(* The one duplicate predicate: stale sequences (at or below the
   eviction floor) count as duplicates. *)
let duplicate s seq = seq <= s.floor || Hashtbl.mem s.seen seq

let seen t ~origin ~seq =
  match Hashtbl.find t.origins origin with
  | s -> duplicate s seq
  | exception Not_found -> seq <= initial_floor

(* [mark t ~origin ~seq] returns [true] iff this is a fresh sighting. *)
let mark t ~origin ~seq =
  let s = state_for t origin in
  if duplicate s seq then false
  else begin
    Hashtbl.replace s.seen seq ();
    if seq > s.highest then s.highest <- seq;
    let target_floor = s.highest - t.span in
    (* Every retained sequence is above the floor. A short advance steps
       the floor one sequence at a time; one that passes more sequences
       than the origin retains (a jump: sequence numbers come off the
       wire) evicts in one pass over [seen] instead. Either way the
       eviction work is O(min (advance, retained)): at most O(span) per
       mark, whatever the jump. *)
    if target_floor - s.floor > Hashtbl.length s.seen then begin
      Hashtbl.filter_map_inplace
        (fun seq () ->
          if seq <= target_floor then begin
            t.evictions <- t.evictions + 1;
            None
          end
          else Some ())
        s.seen;
      s.floor <- target_floor
    end
    else
      while s.floor < target_floor do
        s.floor <- s.floor + 1;
        if Hashtbl.mem s.seen s.floor then begin
          Hashtbl.remove s.seen s.floor;
          t.evictions <- t.evictions + 1
        end
      done;
    true
  end

let evictions t = t.evictions

let retained t =
  Hashtbl.fold (fun _ s acc -> acc + Hashtbl.length s.seen) t.origins 0
