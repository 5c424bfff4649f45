(* Continuously-running invariant checker.

   Attached to a live deployment, it observes every replica execution,
   every gated breaker actuation, and global execution progress, and
   records a violation whenever:

   - agreement safety: two replicas execute different updates at the same
     global sequence number;
   - at-most-once actuation: a proxy actuates the same decided command
     key twice (the f+1 threshold gate must fire exactly once per key);
   - bounded-delay liveness: while the runner reports the system healthy
     (at most f faulty replicas, no quorum-isolating partition), the
     global execution frontier fails to advance for [liveness_bound]
     seconds;
   - recovery liveness: a replica brought back from a clean image fails
     to rejoin — running with its preorder origin re-based — within
     [recovery_bound] (30 s);
   - state-digest agreement: two running replicas at the same execution
     frontier hold different application state digests (a recovered
     replica must converge to the quorum's state byte-for-byte).

   All observations come through deterministic simulation hooks, so a
   violation found under some seed reproduces under that seed. *)

type violation = { v_time : float; v_invariant : string; v_detail : string }

type pending_recovery = { pr_replica : int; pr_started : float; pr_deadline : float }

type t = {
  engine : Sim.Engine.t;
  liveness_bound : float;
  is_healthy : unit -> bool;
  executed : (int, string) Hashtbl.t; (* exec_seq -> update identity *)
  actuated : (string, int) Hashtbl.t; (* proxy ^ key -> actuation count *)
  mutable violations : violation list; (* newest first *)
  mutable recoveries : pending_recovery list;
  mutable recovery_latencies : float list; (* newest first *)
  mutable deployment : Spire.Deployment.t option;
  mutable last_exec : int;
  mutable last_progress : float;
  mutable executions : int;
  mutable actuations : int;
  digest_seen : (int, int * string) Hashtbl.t;
      (* scratch for the digest sweep: exec_seq -> (first replica index,
         its raw digest root). Reset per sweep instead of reallocated —
         the sweep runs every 0.1 s for the whole chaos run. *)
  mutable poll : Sim.Engine.timer option;
  mutable power_poll : Sim.Engine.timer option;
  mutable fdia_streak : int; (* consecutive flagged estimator sweeps *)
  mutable fdia_detected_at : float option;
  mutable estimator_sweeps : int;
  mutable estimator_last : Estimator.report option;
  mutable on_violation : (violation -> unit) option;
}

(* Seconds a replica restarted from a clean image has to rejoin. *)
let recovery_bound = 30.0

let create ?(liveness_bound = 20.0) ~engine ~is_healthy () =
  {
    engine;
    liveness_bound;
    is_healthy;
    executed = Hashtbl.create 64;
    actuated = Hashtbl.create 16;
    violations = [];
    recoveries = [];
    recovery_latencies = [];
    deployment = None;
    last_exec = 0;
    last_progress = 0.0;
    executions = 0;
    actuations = 0;
    digest_seen = Hashtbl.create 8;
    poll = None;
    power_poll = None;
    fdia_streak = 0;
    fdia_detected_at = None;
    estimator_sweeps = 0;
    estimator_last = None;
    on_violation = None;
  }

(* Observer hook: the chaos runner uses this to dump the flight recorder
   the moment the first violation lands, so the JSONL carries exactly the
   events leading up to the verdict. *)
let set_on_violation t f = t.on_violation <- Some f

let violate t ~invariant detail =
  let v = { v_time = Sim.Engine.now t.engine; v_invariant = invariant; v_detail = detail } in
  t.violations <- v :: t.violations;
  (* The verdict itself closes the narrative a violation dump carries. *)
  if Obs.Flight.recording Obs.Flight.default then
    Obs.Flight.record Obs.Flight.default ~time:v.v_time ~severity:Obs.Flight.Alarm
      ~subsystem:"chaos" ~kind:"invariant.violation" (invariant ^ ": " ^ detail);
  match t.on_violation with Some f -> f v | None -> ()

let note_execution t ~replica ~exec_seq ~identity =
  t.executions <- t.executions + 1;
  match Hashtbl.find_opt t.executed exec_seq with
  | None -> Hashtbl.replace t.executed exec_seq identity
  | Some first when String.equal first identity -> ()
  | Some first ->
      violate t ~invariant:"agreement"
        (Printf.sprintf "replica %d executed %s at seq %d, but %s was executed there first"
           replica identity exec_seq first)

let note_actuation t ~proxy ~key =
  t.actuations <- t.actuations + 1;
  let k = proxy ^ "|" ^ key in
  let count = 1 + (Hashtbl.find_opt t.actuated k |> Option.value ~default:0) in
  Hashtbl.replace t.actuated k count;
  if count > 1 then
    violate t ~invariant:"at-most-once"
      (Printf.sprintf "proxy %s actuated key %s %d times" proxy key count)

let expect_recovery t ~replica =
  let now = Sim.Engine.now t.engine in
  t.recoveries <-
    { pr_replica = replica; pr_started = now; pr_deadline = now +. recovery_bound }
    :: t.recoveries

let check_progress t =
  let now = Sim.Engine.now t.engine in
  match t.deployment with
  | None -> ()
  | Some deployment ->
      let frontier =
        Array.fold_left
          (fun acc r -> max acc (Prime.Replica.exec_seq r.Spire.Deployment.r_replica))
          0
          (Spire.Deployment.replicas deployment)
      in
      if frontier > t.last_exec then begin
        t.last_exec <- frontier;
        t.last_progress <- now
      end
      else if not (t.is_healthy ()) then
        (* Degraded intervals (> f faulty, quorum-isolating partition,
           post-heal grace) do not count against the bound. *)
        t.last_progress <- now
      else if now -. t.last_progress > t.liveness_bound then begin
        violate t ~invariant:"liveness"
          (Printf.sprintf "no execution progress past seq %d for %.1f s while healthy"
             frontier (now -. t.last_progress));
        t.last_progress <- now
      end

(* [Scada.State.digest] is a pure function of the executed prefix
   (ops_applied and other incarnation-local bookkeeping are excluded
   from the serialization), so any two running replicas standing at the
   same execution frontier must hold byte-identical state — including a
   replica that just rejoined through local WAL replay or an f+1-voted
   checkpoint transfer. *)
let check_state_digests t =
  match t.deployment with
  | None -> ()
  | Some deployment ->
      (* Raw 32-byte roots, which hash only what changed since the last
         read — no hex rendering and no per-sweep table allocation on
         this every-tick path; hex appears only in a violation message. *)
      Hashtbl.reset t.digest_seen;
      Array.iteri
        (fun i r ->
          let rep = r.Spire.Deployment.r_replica in
          if Prime.Replica.is_running rep then begin
            let e = Prime.Replica.exec_seq rep in
            let d = Scada.State.digest_root (Scada.Master.state r.Spire.Deployment.r_master) in
            match Hashtbl.find_opt t.digest_seen e with
            | None -> Hashtbl.replace t.digest_seen e (i, d)
            | Some (first, d0) ->
                if not (String.equal d0 d) then
                  violate t ~invariant:"state-digest"
                    (Printf.sprintf
                       "replicas %d and %d disagree on the state digest at exec %d (%s vs %s)"
                       first i e
                       (String.sub (Crypto.Sha256.to_hex d0) 0 12)
                       (String.sub (Crypto.Sha256.to_hex d) 0 12))
          end)
        (Spire.Deployment.replicas deployment)

let check_recoveries t =
  let now = Sim.Engine.now t.engine in
  match t.deployment with
  | None -> ()
  | Some deployment ->
      let replicas = Spire.Deployment.replicas deployment in
      t.recoveries <-
        List.filter
          (fun pr ->
            let r = replicas.(pr.pr_replica).Spire.Deployment.r_replica in
            if Prime.Replica.is_running r && Prime.Replica.origin_synced r then begin
              t.recovery_latencies <- (now -. pr.pr_started) :: t.recovery_latencies;
              false
            end
            else if now > pr.pr_deadline then begin
              violate t ~invariant:"recovery"
                (Printf.sprintf
                   "replica %d not rejoined %.1f s after clean restart (running=%b synced=%b)"
                   pr.pr_replica recovery_bound (Prime.Replica.is_running r)
                   (Prime.Replica.origin_synced r));
              false
            end
            else true)
          t.recoveries

(* --- power-physics invariants ------------------------------------------------ *)

(* Consecutive flagged estimator sweeps required before the chi-square
   verdict counts: a single sweep can straddle a poll in which breaker
   status and analog image update in different packets. *)
let fdia_persistence = 3

(* Ground-truth physical invariants against the live electrical overlay
   (not the telemetry image): these hold in every honest run, faulted or
   not, because the solver itself guarantees them — a violation means
   the co-simulation, not the grid, is broken. *)
let check_power_physics t (net : Power.Net.t) =
  let model = Power.Net.model net in
  let solution = Power.Net.solution net in
  (* No flow through an open path: a line whose gate breaker is open or
     whose protection tripped carries exactly nothing. *)
  Array.iteri
    (fun li (line : Power.Model.line) ->
      if not solution.Power.Model.line_live.(li) then begin
        let f = solution.Power.Model.flows_mw.(li) in
        if abs_float f > 1e-9 then
          violate t ~invariant:"power.open-flow"
            (Printf.sprintf "line %s carries %.3f MW while dead" line.Power.Model.line_name f)
      end)
    model.Power.Model.lines;
  (* Balance: DC flow is lossless, so generation matches served load. *)
  let imbalance =
    abs_float (solution.Power.Model.gen_mw -. solution.Power.Model.served_mw)
  in
  if imbalance > 1e-6 then
    violate t ~invariant:"power.balance"
      (Printf.sprintf "generation %.6f MW vs served %.6f MW" solution.Power.Model.gen_mw
         solution.Power.Model.served_mw);
  (* Frequency: droop never raises it above nominal, UFLS restores the
     balance, and the floor clamp bounds the excursion. *)
  let f = solution.Power.Model.frequency_hz in
  let nominal = model.Power.Model.nominal_hz in
  if f > nominal +. 1e-9 || f < 50.0 -. 1e-9 then
    violate t ~invariant:"power.frequency"
      (Printf.sprintf "frequency %.3f Hz outside [50, %.0f]" f nominal);
  if solution.Power.Model.shed_mw = 0.0 && abs_float (f -. nominal) > 1e-9 then
    violate t ~invariant:"power.frequency"
      (Printf.sprintf "frequency %.3f Hz depressed with nothing shed" f);
  (* Cascade containment: protection must clear any overload within the
     worst-case inverse-time delay. *)
  List.iter
    (fun (line, since) ->
      violate t ~invariant:"power.cascade"
        (Printf.sprintf "line %s overloaded since t=%.3f without tripping" line since))
    (Power.Net.stuck_overloads net ~grace:1.0)

(* Chi-square bad-data sweep over what the master group actually holds:
   the first running replica's replicated state. Flags must persist for
   [fdia_persistence] consecutive sweeps before the verdict lands, at
   which point an [fdia.flagged] alarm event hits the flight recorder
   (and through it the alert engine). *)
let check_bad_data t deployment (net : Power.Net.t) =
  let replicas = Spire.Deployment.replicas deployment in
  let state = ref None in
  Array.iter
    (fun (r : Spire.Deployment.replica_bundle) ->
      if !state = None && Prime.Replica.is_running r.Spire.Deployment.r_replica then
        state := Some (Scada.Master.state r.Spire.Deployment.r_master))
    replicas;
  match !state with
  | None -> ()
  | Some state -> (
      t.estimator_sweeps <- t.estimator_sweeps + 1;
      match Estimator.evaluate (Power.Net.model net) state with
      | None -> t.fdia_streak <- 0
      | Some report ->
          t.estimator_last <- Some report;
          if not report.Estimator.est_flagged then t.fdia_streak <- 0
          else begin
            t.fdia_streak <- t.fdia_streak + 1;
            if t.fdia_streak = fdia_persistence && t.fdia_detected_at = None then begin
              let now = Sim.Engine.now t.engine in
              t.fdia_detected_at <- Some now;
              violate t ~invariant:"bad-data"
                (Printf.sprintf "chi-square J=%.1f > %.1f (dof %d), worst %s at %.1f sigma"
                   report.Estimator.est_j report.Estimator.est_threshold
                   report.Estimator.est_dof report.Estimator.est_worst_point
                   report.Estimator.est_worst_residual);
              if Obs.Flight.recording Obs.Flight.default then
                Obs.Flight.record Obs.Flight.default ~time:now ~severity:Obs.Flight.Alarm
                  ~subsystem:"chaos" ~kind:"fdia.flagged"
                  (Printf.sprintf "state estimation rejects telemetry: J=%.1f > %.1f, worst %s"
                     report.Estimator.est_j report.Estimator.est_threshold
                     report.Estimator.est_worst_point)
            end
          end)

let attach_power t deployment =
  let net = Spire.Deployment.power_net deployment in
  t.power_poll <-
    Some
      (Sim.Engine.every t.engine ~period:0.1 (fun () ->
           check_power_physics t net;
           check_bad_data t deployment net))

let fdia_detected_at t = t.fdia_detected_at

let estimator_sweeps t = t.estimator_sweeps

let estimator_last t = t.estimator_last

let attach t deployment =
  t.deployment <- Some deployment;
  t.last_progress <- Sim.Engine.now t.engine;
  Array.iteri
    (fun i r ->
      Prime.Replica.set_on_execute r.Spire.Deployment.r_replica (fun ~exec_seq u ->
          let client, client_seq = Prime.Msg.Update.key u in
          note_execution t ~replica:i ~exec_seq
            ~identity:(Printf.sprintf "%s#%d:%s" client client_seq u.Prime.Msg.Update.op)))
    (Spire.Deployment.replicas deployment);
  Array.iter
    (fun p ->
      let proxy = p.Spire.Deployment.p_proxy in
      let name = Scada.Proxy.name proxy in
      Scada.Proxy.set_on_actuate proxy (fun ~key ~breaker:_ ~close:_ ->
          note_actuation t ~proxy:name ~key))
    (Spire.Deployment.proxies deployment);
  t.poll <-
    Some
      (Sim.Engine.every t.engine ~period:0.1 (fun () ->
           check_progress t;
           check_recoveries t;
           check_state_digests t))

let stop t =
  (match t.poll with Some timer -> Sim.Engine.cancel_timer t.engine timer | None -> ());
  t.poll <- None;
  (match t.power_poll with Some timer -> Sim.Engine.cancel_timer t.engine timer | None -> ());
  t.power_poll <- None

let violations t = List.rev t.violations

let recovery_latencies t = List.rev t.recovery_latencies

let executions_checked t = t.executions

let actuations_checked t = t.actuations
