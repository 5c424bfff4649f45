(* Discrete-event simulation engine.

   Time is virtual (seconds as float). Events are thunks scheduled at
   absolute times; the run loop pops them in time order and executes them.
   Cancellation is lazy: a cancelled event stays in the queue but its thunk
   is skipped when popped.

   The queue is a hierarchical timer wheel ({!Wheel}): O(1)
   schedule/cancel for the dominant short-horizon timers, slab-allocated
   event cells, no per-event id bookkeeping tables. It pops in exactly
   (time, schedule-order) order, so same-seed runs are byte-identical;
   the sim tests pin that order against a plain binary-heap reference
   queue. *)

type event_id = int

type t = {
  mutable now : float;
  queue : Wheel.t;
  rng : Rng.t;
  mutable executed : int;
  mutable stop_requested : bool;
}

(* [hint] pre-sizes the wheel's cell slab for the expected number of
   in-flight events; long deployment runs hold tens of thousands of
   pending events and the doubling churn showed up in profiles. *)
let create ?(seed = 0x5CADAL) ?(hint = 64) () =
  {
    now = 0.0;
    queue = Wheel.create ~hint:(max 16 hint) ();
    rng = Rng.create seed;
    executed = 0;
    stop_requested = false;
  }

let now t = t.now

let rng t = t.rng

let split_rng t = Rng.split t.rng

let executed_events t = t.executed

let schedule_at t ~time thunk =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.9f is in the past (now %.9f)" time t.now);
  Wheel.schedule t.queue ~time thunk

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) thunk

let cancel t id = Wheel.cancel t.queue id

let cancelled_backlog t = Wheel.cancelled_backlog t.queue

let pending t = Wheel.length t.queue

let queue_capacity t = Wheel.capacity t.queue

let stop t = t.stop_requested <- true

let step t =
  match Wheel.pop t.queue with
  | Wheel.Empty -> false
  | Wheel.Cancelled time ->
      t.now <- time;
      true
  | Wheel.Event (time, thunk) ->
      t.now <- time;
      t.executed <- t.executed + 1;
      thunk ();
      true

let run ?until t =
  t.stop_requested <- false;
  let continue () =
    (not t.stop_requested)
    &&
    match (Wheel.peek t.queue, until) with
    | None, _ -> false
    | Some _, None -> true
    | Some time, Some limit -> time <= limit
  in
  while continue () do
    ignore (step t)
  done;
  (* A bounded run leaves the clock at the horizon even if the queue went
     quiet earlier, so periodic processes restarted later stay aligned. *)
  match until with Some limit when limit > t.now -> t.now <- limit | _ -> ()

(* Recurring timer built from self-rescheduling one-shot events. The handle
   carries the id of the *next* occurrence so cancellation always hits the
   pending event. *)
type timer = { mutable next_event : event_id; mutable active : bool }

let every t ~period thunk =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let timer = { next_event = 0; active = true } in
  let rec arm delay =
    timer.next_event <-
      schedule t ~delay (fun () ->
          if timer.active then begin
            thunk ();
            if timer.active then arm period
          end)
  in
  arm period;
  timer

let cancel_timer t timer =
  if timer.active then begin
    timer.active <- false;
    cancel t timer.next_event
  end
