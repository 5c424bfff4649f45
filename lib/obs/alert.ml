(* Edge-triggered alert engine over health probes and flight events.

   Two rule families:

   - Sample rules evaluate a probe sample (usually on a periodic
     sampler tick). A rule holds while its condition holds; an alarm is
     raised only on the false -> true edge, and the rule re-arms when
     the condition clears — a stuck condition produces one alarm, not
     one per tick.

   - Event rules watch the flight-event stream: an alarm is raised when
     at least [threshold] events of the watched kinds arrive within
     [event_window] (1 s), with an [event_cooldown] (5 s) before the same
     rule may fire again (retransmission storms produce one alarm per
     burst).

   Raised alarms are appended to the engine's log and echoed into the
   flight recorder at severity [Alarm], so the JSONL dump interleaves
   causes and detections on one timeline. Everything is driven by the
   simulation clock through deterministic inputs, so same-seed campaigns
   raise identical alarms at identical times — which is what lets
   detection latency be a stable, reportable metric (ROADMAP item 5). *)

type alarm = { al_time : float; al_rule : string; al_detail : string }

type sample = (string * Probe.snapshot) list

type sample_rule = {
  sr_name : string;
  mutable sr_active : bool; (* condition held at the previous tick *)
  sr_check : sample -> string option; (* Some detail while the condition holds *)
}

type event_rule = {
  er_name : string;
  er_kinds : string list;
  er_threshold : int;
  mutable er_times : float list; (* matching-event times, newest first *)
  mutable er_last : float; (* last alarm time; negative infinity initially *)
}

type t = {
  flight : Flight.t option;
  mutable alarms : alarm list; (* newest first *)
  mutable n_alarms : int;
  sample_rules : sample_rule list;
  event_rules : event_rule list;
}

let sample_rule ~name check = { sr_name = name; sr_active = false; sr_check = check }

(* An event rule counts matching events over the last [event_window]
   seconds and, once it alarms, stays quiet for [event_cooldown]
   seconds. *)
let event_window = 1.0

let event_cooldown = 5.0

let event_rule ~name ~kinds ?(threshold = 1) () =
  {
    er_name = name;
    er_kinds = kinds;
    er_threshold = threshold;
    er_times = [];
    er_last = neg_infinity;
  }

(* --- builtin rules ---------------------------------------------------- *)

let metrics_with ~probe_prefix ~metric sample =
  List.concat_map
    (fun (name, metrics) ->
      if String.length name >= String.length probe_prefix
         && String.sub name 0 (String.length probe_prefix) = probe_prefix
      then
        match List.assoc_opt metric metrics with
        | Some v -> [ (name, v) ]
        | None -> []
      else [])
    sample

(* Checkpoint lag: a durable store has fallen more than [max_windows]
   checkpoint windows behind its replica's execution frontier. *)
let max_windows = 2.0

let checkpoint_lag_rule () =
  sample_rule ~name:"checkpoint-lag" (fun sample ->
      match
        List.filter (fun (_, lag) -> lag > max_windows)
          (metrics_with ~probe_prefix:"store." ~metric:"ck_lag_windows" sample)
      with
      | [] -> None
      | (name, lag) :: _ ->
          Some (Printf.sprintf "%s is %.0f checkpoint windows behind" name lag))

(* Sustained link-layer drops: the total dropped count across Spines
   daemons grew by at least [min_drops] within the last [drops_window]
   evaluations. A rate condition, not a consecutive-growth streak: at a
   50ms sampling period even a heavily lossy link skips ticks. *)
let min_drops = 5.0

let drops_window = 20

let sustained_drops_rule () =
  let history = ref [] (* newest first, at most [drops_window] totals *) in
  sample_rule ~name:"sustained-drops" (fun sample ->
      let total =
        List.fold_left (fun acc (_, v) -> acc +. v) 0.0
          (metrics_with ~probe_prefix:"spines." ~metric:"drops_total" sample)
      in
      let keep = drops_window - 1 in
      let trimmed = if List.length !history > keep then List.filteri (fun i _ -> i < keep) !history else !history in
      history := total :: trimmed;
      let oldest = List.nth !history (List.length !history - 1) in
      let grown = total -. oldest in
      if List.length !history >= drops_window && grown >= min_drops then
        Some
          (Printf.sprintf "%.0f link drops in the last %d samples (total %.0f)" grown
             drops_window total)
      else None)

(* Replica health divergence: the execution frontiers of *running*
   replicas have spread beyond [max_spread] sequence numbers — a
   partitioned or struggling replica is falling behind the quorum. *)
let max_spread = 5.0

let divergence_rule () =
  sample_rule ~name:"replica-divergence" (fun sample ->
      let running =
        List.filter
          (fun (name, _) ->
            match metrics_with ~probe_prefix:name ~metric:"running" sample with
            | [ (_, r) ] -> r > 0.5
            | _ -> false)
          (metrics_with ~probe_prefix:"prime." ~metric:"exec_seq" sample)
      in
      match running with
      | [] | [ _ ] -> None
      | (_, e0) :: _ ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) (_, e) -> (Float.min lo e, Float.max hi e))
              (e0, e0) running
          in
          if hi -. lo > max_spread then
            Some (Printf.sprintf "running replicas span exec %.0f..%.0f" lo hi)
          else None)

(* A replica process is down. *)
let replica_down_rule () =
  sample_rule ~name:"replica-down" (fun sample ->
      match
        List.filter (fun (_, r) -> r < 0.5)
          (metrics_with ~probe_prefix:"prime." ~metric:"running" sample)
      with
      | [] -> None
      | (name, _) :: _ -> Some (name ^ " is not running"))

let default_sample_rules () =
  [
    checkpoint_lag_rule ();
    sustained_drops_rule ();
    divergence_rule ();
    replica_down_rule ();
  ]

let default_event_rules () =
  [
    event_rule ~name:"malformed-frames" ~kinds:[ "frame.malformed" ] ~threshold:3 ();
    event_rule ~name:"leader-suspected" ~kinds:[ "leader.suspect" ] ();
    event_rule ~name:"store-fault"
      ~kinds:[ "wal.replay_gap"; "wal.corrupt"; "checkpoint.bad"; "disk.wipe" ] ();
    event_rule ~name:"bad-data" ~kinds:[ "fdia.flagged" ] ();
  ]

(* --- engine ----------------------------------------------------------- *)

let raise_alarm t ~time ~rule ~detail =
  t.alarms <- { al_time = time; al_rule = rule; al_detail = detail } :: t.alarms;
  t.n_alarms <- t.n_alarms + 1;
  match t.flight with
  | Some fl -> Flight.record fl ~time ~severity:Flight.Alarm ~subsystem:"alert" ~kind:rule detail
  | None -> ()

let observe_event t (e : Flight.event) =
  (* Alarms the engine itself writes back must not feed rules. *)
  if not (String.equal e.Flight.ev_subsystem "alert") then
    List.iter
      (fun r ->
        if List.mem e.Flight.ev_kind r.er_kinds then begin
          let horizon = e.Flight.ev_time -. event_window in
          r.er_times <-
            e.Flight.ev_time :: List.filter (fun ti -> ti >= horizon) r.er_times;
          if
            List.length r.er_times >= r.er_threshold
            && e.Flight.ev_time -. r.er_last >= event_cooldown
          then begin
            r.er_last <- e.Flight.ev_time;
            r.er_times <- [];
            raise_alarm t ~time:e.Flight.ev_time ~rule:r.er_name
              ~detail:
                (Printf.sprintf "%d %s event(s) within %.2fs" r.er_threshold
                   e.Flight.ev_kind event_window)
          end
        end)
      t.event_rules

let create ?sample_rules ?event_rules ?flight () =
  let t =
    {
      flight;
      alarms = [];
      n_alarms = 0;
      sample_rules =
        (match sample_rules with Some rs -> rs | None -> default_sample_rules ());
      event_rules =
        (match event_rules with Some rs -> rs | None -> default_event_rules ());
    }
  in
  (match flight with Some fl -> Flight.on_event fl (fun e -> observe_event t e) | None -> ());
  t

let evaluate t ~time sample =
  List.iter
    (fun r ->
      match r.sr_check sample with
      | Some detail ->
          if not r.sr_active then begin
            r.sr_active <- true;
            raise_alarm t ~time ~rule:r.sr_name ~detail
          end
      | None -> r.sr_active <- false)
    t.sample_rules

let alarms t = List.rev t.alarms

let alarm_count t = t.n_alarms

(* Earliest alarm raised at or after [time] — the detection-latency
   anchor: first alarm after a fault was injected. *)
let first_alarm_after t time =
  List.find_opt (fun a -> a.al_time >= time) (alarms t)

let alarm_to_json a =
  Json.Obj
    [
      ("time", Json.Num a.al_time);
      ("rule", Json.Str a.al_rule);
      ("detail", Json.Str a.al_detail);
    ]
