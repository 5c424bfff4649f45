(* Unit and property tests for the simulation substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create 7L in
  let child = Sim.Rng.split root in
  (* Drawing from the child must not change the parent's stream relative to
     a parent that split but never used the child. *)
  let root' = Sim.Rng.create 7L in
  let _child' = Sim.Rng.split root' in
  for _ = 1 to 10 do
    ignore (Sim.Rng.int child 100)
  done;
  for _ = 1 to 50 do
    check_int "parent unaffected" (Sim.Rng.int root 1000) (Sim.Rng.int root' 1000)
  done

let test_rng_bounds () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 7 in
    check "int in range" true (v >= 0 && v < 7);
    let f = Sim.Rng.float rng 2.5 in
    check "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Sim.Rng.create 11L in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Sim.Stats.Summary.add s (Sim.Rng.gaussian rng ~mu:5.0 ~sigma:2.0)
  done;
  check "mean near mu" true (abs_float (Sim.Stats.Summary.mean s -. 5.0) < 0.1);
  check "sd near sigma" true (abs_float (Sim.Stats.Summary.stddev s -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 13L in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Sim.Stats.Summary.add s (Sim.Rng.exponential rng ~mean:0.5)
  done;
  check "mean near 0.5" true (abs_float (Sim.Stats.Summary.mean s -. 0.5) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 17L in
  let arr = Array.init 20 (fun i -> i) in
  Sim.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

(* --- Heap ------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  let keys = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 6.0 ] in
  List.iter (fun k -> Sim.Heap.push h ~key:k (int_of_float (k *. 10.0))) keys;
  let rec drain acc =
    match Sim.Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ] (drain [])

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h ~key:1.0 v) [ "a"; "b"; "c" ];
  let next () = match Sim.Heap.pop h with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (next ());
  Alcotest.(check string) "second" "b" (next ());
  Alcotest.(check string) "third" "c" (next ())

let test_heap_capacity () =
  let h = Sim.Heap.create ~capacity:100 () in
  check_int "lazy: no allocation before first push" 0 (Sim.Heap.capacity h);
  Sim.Heap.push h ~key:1.0 "x";
  check "first push allocates at least the hint" true (Sim.Heap.capacity h >= 100);
  let cap = Sim.Heap.capacity h in
  for i = 0 to 98 do
    Sim.Heap.push h ~key:(float_of_int i) "y"
  done;
  check_int "no growth within pre-sized capacity" cap (Sim.Heap.capacity h);
  Sim.Heap.push h ~key:0.5 "z";
  check "grows past the hint" true (Sim.Heap.capacity h > cap);
  check_int "all entries retained" 101 (Sim.Heap.length h);
  check "invalid capacity rejected" true
    (match Sim.Heap.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_engine_hint () =
  let e = Sim.Engine.create ~hint:512 () in
  check_int "queue unallocated before use" 0 (Sim.Engine.queue_capacity e);
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()));
  check "queue pre-sized to hint" true (Sim.Engine.queue_capacity e >= 512);
  let cap = Sim.Engine.queue_capacity e in
  let fired = ref 0 in
  for i = 1 to 511 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  check_int "no reallocation within hint" cap (Sim.Engine.queue_capacity e);
  Sim.Engine.run e;
  check_int "all events fired" 511 !fired;
  (* Tiny hints are clamped rather than rejected. *)
  let tiny = Sim.Engine.create ~hint:1 () in
  ignore (Sim.Engine.schedule tiny ~delay:1.0 (fun () -> ()));
  check "hint clamped to a sane floor" true (Sim.Engine.queue_capacity tiny >= 16)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains in sorted order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.push h ~key:k ()) keys;
      let rec drain acc =
        match Sim.Heap.pop h with None -> List.rev acc | Some (k, ()) -> drain (k :: acc)
      in
      let drained = drain [] in
      drained = List.sort compare keys)

(* --- Engine ----------------------------------------------------------- *)

let test_engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  ignore (Sim.Engine.schedule e ~delay:3.0 (note "c"));
  ignore (Sim.Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Sim.Engine.schedule e ~delay:2.0 (note "b"));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !order);
  check_float "clock at last event" 3.0 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Sim.Engine.run e;
  check "cancelled event does not fire" false !fired

let test_engine_cancel_after_execution_no_leak () =
  (* Regression: cancelling an id whose event already ran used to leave a
     permanent entry in the cancellation table. *)
  let e = Sim.Engine.create () in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> ()) in
  Sim.Engine.run e;
  Sim.Engine.cancel e id;
  check_int "no backlog after cancelling executed event" 0 (Sim.Engine.cancelled_backlog e)

let test_engine_double_cancel_no_leak () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Sim.Engine.cancel e id;
  check_int "one pending cancellation" 1 (Sim.Engine.cancelled_backlog e);
  Sim.Engine.run e;
  check "still cancelled" false !fired;
  check_int "backlog drained when popped" 0 (Sim.Engine.cancelled_backlog e);
  (* A third cancel, after the slot was consumed, must not re-insert. *)
  Sim.Engine.cancel e id;
  check_int "no backlog after late cancel" 0 (Sim.Engine.cancelled_backlog e)

let test_engine_cancel_timer_no_leak () =
  (* cancel_timer targets the next pending occurrence, so the entry is
     consumed when that occurrence pops. *)
  let e = Sim.Engine.create () in
  let timer = Sim.Engine.every e ~period:1.0 (fun () -> ()) in
  Sim.Engine.run ~until:5.5 e;
  Sim.Engine.cancel_timer e timer;
  Sim.Engine.cancel_timer e timer;
  Sim.Engine.run ~until:10.0 e;
  check_int "timer cancellation fully drained" 0 (Sim.Engine.cancelled_backlog e)

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay:0.5 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.0; 1.5 ] (List.rev !times)

let test_engine_until_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~delay:10.0 (fun () -> incr fired));
  Sim.Engine.run ~until:5.0 e;
  check_int "only events before horizon" 1 !fired;
  check_float "clock advanced to horizon" 5.0 (Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "remaining event runs" 2 !fired

let test_engine_periodic_timer () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let timer = Sim.Engine.every e ~period:1.0 (fun () -> incr count) in
  Sim.Engine.run ~until:5.5 e;
  check_int "five periods" 5 !count;
  Sim.Engine.cancel_timer e timer;
  Sim.Engine.run ~until:10.0 e;
  check_int "no more after cancel" 5 !count

let test_engine_stop () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         incr count;
         Sim.Engine.stop e));
  ignore (Sim.Engine.schedule e ~delay:2.0 (fun () -> incr count));
  Sim.Engine.run e;
  check_int "stopped after first" 1 !count

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.schedule_at: time 0.500000000 is in the past (now 1.000000000)")
    (fun () -> ignore (Sim.Engine.schedule_at e ~time:0.5 (fun () -> ())))

(* --- Wheel vs the reference queue -------------------------------------- *)

(* The slice of the engine surface the scripts below drive. *)
module type QUEUE = sig
  type t
  type id
  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> id
  val cancel : t -> id -> unit
  val run : ?until:float -> t -> unit
  val pending : t -> int
  val cancelled_backlog : t -> int
  val executed_events : t -> int
end

(* The order the timer wheel must reproduce: a plain binary heap
   ({!Sim.Heap}, whose ties break by insertion order) popping events by
   (time, schedule-seq), with lazy cancellation through id tables. *)
module Ref_queue : QUEUE = struct
  type id = int

  type t = {
    queue : (id * (unit -> unit)) Sim.Heap.t;
    queued : (id, unit) Hashtbl.t;
    cancelled : (id, unit) Hashtbl.t;
    mutable next_id : id;
    mutable now : float;
    mutable executed : int;
  }

  let create () =
    {
      queue = Sim.Heap.create ();
      queued = Hashtbl.create 64;
      cancelled = Hashtbl.create 64;
      next_id = 0;
      now = 0.0;
      executed = 0;
    }

  let now t = t.now

  let schedule t ~delay thunk =
    let id = t.next_id in
    t.next_id <- id + 1;
    Sim.Heap.push t.queue ~key:(t.now +. delay) (id, thunk);
    Hashtbl.replace t.queued id ();
    id

  (* Only queued ids may be marked: a cancel after the event popped must
     leave nothing behind. *)
  let cancel t id = if Hashtbl.mem t.queued id then Hashtbl.replace t.cancelled id ()

  let cancelled_backlog t = Hashtbl.length t.cancelled

  let pending t = Sim.Heap.length t.queue

  let executed_events t = t.executed

  let run ?until t =
    let due () =
      match (Sim.Heap.peek t.queue, until) with
      | None, _ -> false
      | Some _, None -> true
      | Some (time, _), Some limit -> time <= limit
    in
    while due () do
      match Sim.Heap.pop t.queue with
      | None -> ()
      | Some (time, (id, thunk)) ->
          t.now <- time;
          Hashtbl.remove t.queued id;
          if Hashtbl.mem t.cancelled id then Hashtbl.remove t.cancelled id
          else begin
            t.executed <- t.executed + 1;
            thunk ()
          end
    done;
    match until with Some limit when limit > t.now -> t.now <- limit | _ -> ()
end

module Wheel_engine : QUEUE = struct
  include Sim.Engine

  type id = event_id

  let create () = create ()

  let run ?until t = run ?until t
end

let both_queues : (string * (module QUEUE)) list =
  [ ("wheel", (module Wheel_engine)); ("reference", (module Ref_queue)) ]

(* These tests drive the wheel and the reference queue through identical
   schedules and compare the full observable firing sequence. Cancels
   are expressed by schedule-order index because raw event ids differ
   between the two. *)

let run_queue_script (module Q : QUEUE) ~seed ~events ~horizon () =
  let e = Q.create () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let log = Buffer.create 4096 in
  let ids = ref [] in
  let n_scheduled = ref 0 in
  let remember id =
    ids := id :: !ids;
    incr n_scheduled
  in
  let nth_id i = List.nth !ids (!n_scheduled - 1 - i) in
  let rec spawn tag depth =
    let delay =
      (* Mix of sub-tick ties, short-horizon, L1-range, and far-future
         delays so every wheel layer (active/L0/L1/overflow) is hit. *)
      match Sim.Rng.int rng 10 with
      | 0 -> 0.0 (* same-time tie: pure insertion-order test *)
      | 1 | 2 | 3 -> Sim.Rng.float rng 0.01
      | 4 | 5 | 6 -> Sim.Rng.float rng 1.0
      | 7 | 8 -> 1.0 +. Sim.Rng.float rng 60.0
      | _ -> 65.0 +. Sim.Rng.float rng 300.0
    in
    remember
      (Q.schedule e ~delay (fun () ->
           Buffer.add_string log
             (Printf.sprintf "%s@%.9f;" tag (Q.now e));
           if depth < 3 && Sim.Rng.int rng 3 = 0 then
             spawn (tag ^ "+") (depth + 1);
           (* Occasionally cancel a random earlier schedule (may already
              have fired or been cancelled — both must be no-op-equal
              on the two queues). *)
           if Sim.Rng.int rng 4 = 0 then
             Q.cancel e (nth_id (Sim.Rng.int rng !n_scheduled))))
  in
  for i = 1 to events do
    spawn (string_of_int i) 0
  done;
  Q.run ~until:horizon e;
  Buffer.add_string log
    (Printf.sprintf "|pending=%d backlog=%d executed=%d now=%.9f"
       (Q.pending e)
       (Q.cancelled_backlog e)
       (Q.executed_events e)
       (Q.now e));
  Buffer.contents log

let test_wheel_heap_identical_schedules () =
  List.iter
    (fun seed ->
      let script q = run_queue_script q ~seed ~events:60 ~horizon:500.0 () in
      let w = script (module Wheel_engine) and h = script (module Ref_queue) in
      check "script produced events" true (String.length w > 100);
      Alcotest.(check string) (Printf.sprintf "seed %d identical" seed) h w)
    [ 1; 2; 3; 42; 1337 ]

let test_wheel_tie_break_insertion_order () =
  (* Many events at the same instant interleaved with other instants:
     ties must fire in schedule order on the wheel and the reference. *)
  List.iter
    (fun (name, (module Q : QUEUE)) ->
      let e = Q.create () in
      let order = ref [] in
      for i = 0 to 99 do
        let delay = if i mod 3 = 0 then 1.0 else if i mod 3 = 1 then 2.0 else 1.0 in
        ignore (Q.schedule e ~delay (fun () -> order := i :: !order))
      done;
      Q.run e;
      let fired = List.rev !order in
      let at_1 = List.filter (fun i -> i mod 3 <> 1) fired
      and at_2 = List.filter (fun i -> i mod 3 = 1) fired in
      check (name ^ ": ties in insertion order (t=1)") true (List.sort compare at_1 = at_1);
      check (name ^ ": ties in insertion order (t=2)") true (List.sort compare at_2 = at_2);
      (* All t=1 events precede all t=2 events. *)
      let rec split_ok = function
        | a :: (b :: _ as rest) ->
            ((a mod 3 <> 1) || b mod 3 = 1) && split_ok rest
        | _ -> true
      in
      check (name ^ ": time order across ties") true (split_ok fired))
    both_queues

let test_wheel_overflow_migration () =
  (* Far-future events park in the overflow heap and must migrate inward
     as the cursor approaches — including events that become due while
     the clock advances through intermediate wheel levels, and new near
     events scheduled from thunks after the far ones were parked. *)
  let e = Sim.Engine.create ~hint:16 () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now e) :: !log in
  ignore (Sim.Engine.schedule e ~delay:3600.0 (note "far2"));
  ignore (Sim.Engine.schedule e ~delay:100.0 (note "far1"));
  ignore (Sim.Engine.schedule e ~delay:70.0 (note "mid"));
  (* A near event that schedules another event landing *between* the
     parked overflow events. *)
  ignore
    (Sim.Engine.schedule e ~delay:0.5 (fun () ->
         note "near" ();
         ignore (Sim.Engine.schedule e ~delay:99.0 (note "between"))));
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "overflow events fire in global time order"
    [ "near"; "mid"; "between"; "far1"; "far2" ]
    (List.rev_map fst !log);
  check_float "clock at last event" 3600.0 (Sim.Engine.now e);
  check_int "queue drained" 0 (Sim.Engine.pending e)

let test_wheel_cancel_parity () =
  (* The cancel-bookkeeping contract (no leak on cancel-after-execute,
     double cancel counted once, backlog drained on pop, late cancel of
     a consumed slot ignored) must hold identically on the wheel and the
     reference. *)
  List.iter
    (fun (name, (module Q : QUEUE)) ->
      let check_int msg = check_int (name ^ ": " ^ msg) in
      let e = Q.create () in
      let fired = ref false in
      let id = Q.schedule e ~delay:1.0 (fun () -> fired := true) in
      Q.cancel e id;
      Q.cancel e id;
      check_int "double cancel counted once" 1 (Q.cancelled_backlog e);
      Q.run e;
      check (name ^ ": cancelled event did not fire") false !fired;
      check_int "backlog drained when popped" 0 (Q.cancelled_backlog e);
      Q.cancel e id;
      check_int "late cancel is a no-op" 0 (Q.cancelled_backlog e);
      let id2 = Q.schedule e ~delay:1.0 (fun () -> ()) in
      Q.run e;
      Q.cancel e id2;
      check_int "cancel after execution no leak" 0 (Q.cancelled_backlog e))
    both_queues

let prop_wheel_matches_reference =
  (* Half the delays are whole seconds in [0, 3], so same-time ties are
     common and their order is checked, not just distinct times. *)
  let delay =
    QCheck.Gen.(
      oneof [ float_bound_exclusive 200.0; map float_of_int (int_bound 3) ])
  in
  QCheck.Test.make ~count:100 ~name:"wheel fires identically to the reference queue"
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (pair (make ~print:string_of_float delay) (option (int_bound 39))))
    (fun script ->
      (* Each entry schedules an event at the given delay; the optional
         int cancels the schedule with that index (if it exists) right
         after all schedules are placed. *)
      let run (module Q : QUEUE) =
        let e = Q.create () in
        let log = Buffer.create 256 in
        let ids =
          List.mapi
            (fun i (d, _) ->
              Q.schedule e ~delay:d (fun () ->
                  Buffer.add_string log
                    (Printf.sprintf "%d@%.9f;" i (Q.now e))))
            script
        in
        let ids = Array.of_list ids in
        List.iter
          (fun (_, cancel) ->
            match cancel with
            | Some j when j < Array.length ids -> Q.cancel e ids.(j)
            | _ -> ())
          script;
        Q.run e;
        Printf.sprintf "%s|%d|%d" (Buffer.contents log)
          (Q.executed_events e)
          (Q.cancelled_backlog e)
      in
      String.equal (run (module Wheel_engine)) (run (module Ref_queue)))

let prop_engine_event_times_monotone =
  QCheck.Test.make ~count:100 ~name:"engine executes events in non-decreasing time order"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 100.0))
    (fun delays ->
      let e = Sim.Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore (Sim.Engine.schedule e ~delay:d (fun () -> times := Sim.Engine.now e :: !times)))
        delays;
      Sim.Engine.run e;
      let observed = List.rev !times in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone observed && List.length observed = List.length delays)

(* --- Stats ------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_float "mean" 3.0 (Sim.Stats.Summary.mean s);
  check_float "variance" 2.5 (Sim.Stats.Summary.variance s);
  check_float "min" 1.0 (Sim.Stats.Summary.min s);
  check_float "max" 5.0 (Sim.Stats.Summary.max s);
  check_float "median" 3.0 (Sim.Stats.Summary.median s);
  check_float "p100" 5.0 (Sim.Stats.Summary.percentile s 100.0)

let test_stats_percentile_small () =
  let s = Sim.Stats.Summary.create () in
  Sim.Stats.Summary.add s 10.0;
  check_float "single sample p50" 10.0 (Sim.Stats.Summary.median s);
  check_float "single sample p99" 10.0 (Sim.Stats.Summary.percentile s 99.0)

let test_stats_counter () =
  let c = Sim.Stats.Counter.create () in
  Sim.Stats.Counter.incr c "a";
  Sim.Stats.Counter.incr c "a";
  Sim.Stats.Counter.incr ~by:3 c "b";
  check_int "a" 2 (Sim.Stats.Counter.get c "a");
  check_int "b" 3 (Sim.Stats.Counter.get c "b");
  check_int "missing" 0 (Sim.Stats.Counter.get c "zzz")

let test_stats_percentile_edges () =
  let empty = Sim.Stats.Summary.create () in
  check "empty mean is nan" true (Float.is_nan (Sim.Stats.Summary.mean empty));
  check "empty percentile is nan" true (Float.is_nan (Sim.Stats.Summary.percentile empty 50.0));
  let one = Sim.Stats.Summary.create () in
  Sim.Stats.Summary.add one 7.0;
  check_float "n=1 p0" 7.0 (Sim.Stats.Summary.percentile one 0.0);
  check_float "n=1 p100" 7.0 (Sim.Stats.Summary.percentile one 100.0);
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 4.0; 1.0; 3.0; 2.0 ];
  check_float "p0 is min" 1.0 (Sim.Stats.Summary.percentile s 0.0);
  check_float "p100 is max" 4.0 (Sim.Stats.Summary.percentile s 100.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of [0,100]") (fun () ->
      ignore (Sim.Stats.Summary.percentile s 101.0));
  let dup = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add dup) [ 5.0; 5.0; 5.0; 5.0 ];
  check_float "duplicates p50" 5.0 (Sim.Stats.Summary.median dup);
  check_float "duplicates p99" 5.0 (Sim.Stats.Summary.percentile dup 99.0);
  check_float "duplicates stddev" 0.0 (Sim.Stats.Summary.stddev dup)

let test_stats_timeseries_length () =
  let ts = Sim.Stats.Timeseries.create () in
  check_int "empty" 0 (Sim.Stats.Timeseries.length ts);
  for i = 1 to 5 do
    Sim.Stats.Timeseries.add ts ~time:(float_of_int i) 1.0
  done;
  check_int "five points" 5 (Sim.Stats.Timeseries.length ts);
  check_int "to_list agrees" 5 (List.length (Sim.Stats.Timeseries.to_list ts))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~count:200 ~name:"Welford mean matches naive mean"
    QCheck.(list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Sim.Stats.Summary.create () in
      List.iter (Sim.Stats.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Sim.Stats.Summary.mean s -. naive) < 1e-6)

(* --- Trace ------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let t = Sim.Trace.create () in
  Sim.Trace.record t ~time:1.0 ~category:"net" "packet %d dropped" 7;
  Sim.Trace.record t ~time:2.0 ~category:"attack" "arp poison from %s" "10.0.0.9";
  check_int "two entries" 2 (Sim.Trace.length t);
  (match Sim.Trace.find t ~category:"attack" ~contains:"arp poison" with
  | Some entry -> check_float "time" 2.0 entry.Sim.Trace.time
  | None -> Alcotest.fail "attack entry not found");
  check "absent entry" true
    (Sim.Trace.find t ~category:"net" ~contains:"nonexistent" = None);
  check_int "category filter" 1 (List.length (Sim.Trace.by_category t "net"))

let test_trace_find_edges () =
  let t = Sim.Trace.create () in
  Sim.Trace.record t ~time:1.0 ~category:"net" "%s" "tail-match-xyz";
  Sim.Trace.record t ~time:2.0 ~category:"net" "%s" "ab";
  (* Needle at the very end of the message (the old scan missed nothing,
     but the boundary is where an off-by-one would hide). *)
  check "match at end" true (Sim.Trace.find t ~category:"net" ~contains:"xyz" <> None);
  check "needle longer than message" true
    (Sim.Trace.find t ~category:"net" ~contains:"abc" = None);
  check "empty needle matches" true (Sim.Trace.find t ~category:"net" ~contains:"" <> None);
  check "category must match too" true
    (Sim.Trace.find t ~category:"attack" ~contains:"xyz" = None);
  (* find returns the FIRST retained match in chronological order. *)
  Sim.Trace.record t ~time:3.0 ~category:"net" "%s" "xyz again";
  (match Sim.Trace.find t ~category:"net" ~contains:"xyz" with
  | Some e -> check_float "first match wins" 1.0 e.Sim.Trace.time
  | None -> Alcotest.fail "match expected")

let test_trace_ring_buffer () =
  let t = Sim.Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Sim.Trace.record t ~time:(float_of_int i) ~category:"c" "entry %d" i
  done;
  check_int "length counts everything ever recorded" 5 (Sim.Trace.length t);
  check_int "retained is bounded" 3 (Sim.Trace.retained t);
  (match Sim.Trace.entries t with
  | [ a; b; c ] ->
      check_float "oldest evicted" 3.0 a.Sim.Trace.time;
      check_float "middle" 4.0 b.Sim.Trace.time;
      check_float "newest kept" 5.0 c.Sim.Trace.time
  | l -> Alcotest.failf "expected 3 entries, got %d" (List.length l));
  check "evicted entries are not findable" true
    (Sim.Trace.find t ~category:"c" ~contains:"entry 1" = None);
  check "retained entries are findable" true
    (Sim.Trace.find t ~category:"c" ~contains:"entry 4" <> None);
  check_int "by_category sees retained only" 3 (List.length (Sim.Trace.by_category t "c"));
  (match Sim.Trace.create ~capacity:0 () with
  | (_ : Sim.Trace.t) -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ())

let prop_strx_contains_matches_naive =
  (* Reference implementation: check every alignment with String.sub. *)
  let naive ~needle hay =
    let n = String.length needle and h = String.length hay in
    if n > h then false
    else
      let rec at i = i <= h - n && (String.equal (String.sub hay i n) needle || at (i + 1)) in
      at 0
  in
  QCheck.Test.make ~count:500 ~name:"Strx.contains agrees with naive substring search"
    QCheck.(pair (string_of_size Gen.(int_range 0 30)) (string_of_size Gen.(int_range 0 4)))
    (fun (hay, needle) ->
      Sim.Strx.contains ~needle hay = naive ~needle hay)

let test_strx_basics () =
  check "empty needle" true (Sim.Strx.contains ~needle:"" "abc");
  check "empty haystack" false (Sim.Strx.contains ~needle:"a" "");
  check "both empty" true (Sim.Strx.contains ~needle:"" "");
  check "full match" true (Sim.Strx.contains ~needle:"abc" "abc");
  check "repeated prefix" true (Sim.Strx.contains ~needle:"aab" "aaab");
  check "starts_with" true (Sim.Strx.starts_with ~prefix:"sta" "status:B57:1");
  check "starts_with miss" false (Sim.Strx.starts_with ~prefix:"cmd" "status:B57:1")

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap capacity pre-sizing", `Quick, test_heap_capacity);
    ("engine hint pre-sizes queue", `Quick, test_engine_hint);
    ("engine time order", `Quick, test_engine_runs_in_time_order);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine cancel after execution no leak", `Quick, test_engine_cancel_after_execution_no_leak);
    ("engine double cancel no leak", `Quick, test_engine_double_cancel_no_leak);
    ("engine cancel timer no leak", `Quick, test_engine_cancel_timer_no_leak);
    ("engine nested schedule", `Quick, test_engine_nested_schedule);
    ("engine until horizon", `Quick, test_engine_until_horizon);
    ("engine periodic timer", `Quick, test_engine_periodic_timer);
    ("engine stop", `Quick, test_engine_stop);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("wheel/heap identical schedules", `Quick, test_wheel_heap_identical_schedules);
    ("wheel tie-break insertion order", `Quick, test_wheel_tie_break_insertion_order);
    ("wheel overflow migration", `Quick, test_wheel_overflow_migration);
    ("wheel/heap cancel parity", `Quick, test_wheel_cancel_parity);
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile small", `Quick, test_stats_percentile_small);
    ("stats percentile edges", `Quick, test_stats_percentile_edges);
    ("stats timeseries length", `Quick, test_stats_timeseries_length);
    ("stats counter", `Quick, test_stats_counter);
    ("trace roundtrip", `Quick, test_trace_roundtrip);
    ("trace find edges", `Quick, test_trace_find_edges);
    ("trace ring buffer", `Quick, test_trace_ring_buffer);
    ("strx basics", `Quick, test_strx_basics);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_wheel_matches_reference;
    QCheck_alcotest.to_alcotest prop_engine_event_times_monotone;
    QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
    QCheck_alcotest.to_alcotest prop_strx_contains_matches_naive;
  ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
