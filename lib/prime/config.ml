(* Prime replication parameters.

   Sizing follows the paper: tolerating f intrusions while k replicas may
   simultaneously be down for proactive recovery requires
   n = 3f + 2k + 1 replicas, with quorums of 2f + k + 1. The red-team
   deployment used f = 1, k = 0 (4 replicas, no automatic recovery); the
   power-plant deployment used f = 1, k = 1 (6 replicas).

   The protocol's timer periods are constants, not fields: no deployment
   tunes them. *)

let delta_pp = 0.03 (* minimum spacing of the leader's pre-prepares; also its idle tick *)
let summary_period = 0.01 (* minimum spacing of a replica's PO-summaries *)
let summary_refresh_period = 0.5 (* idle summary refresh *)
let tat_check_period = 0.25 (* suspect-leader evaluation interval *)
let reconcile_period = 0.1 (* missing-update re-request interval *)

type t = {
  f : int; (* tolerated intrusions *)
  k : int; (* simultaneous proactive recoveries *)
  n : int;
  quorum : int; (* 2f + k + 1 *)
  tat_allowance : float; (* acceptable turnaround beyond network delay *)
  log_retention : int; (* ordered-log entries kept for catchup *)
  checkpoint_interval : int; (* executions between durable checkpoints *)
}

let create ?(f = 1) ?(k = 0) ?(tat_allowance = 0.25) ?(log_retention = 1000)
    ?(checkpoint_interval = 64) () =
  if f < 1 then invalid_arg "Config.create: f must be >= 1";
  if k < 0 then invalid_arg "Config.create: k must be >= 0";
  if checkpoint_interval < 1 then invalid_arg "Config.create: checkpoint_interval must be >= 1";
  let n = (3 * f) + (2 * k) + 1 in
  (* Voter sets are int bit sets ([Voters]): one bit per replica. *)
  if n > Sys.int_size - 1 then
    invalid_arg (Printf.sprintf "Config.create: n = 3f + 2k + 1 must be <= %d" (Sys.int_size - 1));
  {
    f;
    k;
    n;
    quorum = (2 * f) + k + 1;
    tat_allowance;
    log_retention;
    checkpoint_interval;
  }

(* The red-team configuration: 4 replicas, one intrusion, no recovery. *)
let red_team () = create ~f:1 ~k:0 ()

(* The power-plant configuration: 6 replicas, one intrusion plus one
   concurrent proactive recovery. *)
let power_plant () = create ~f:1 ~k:1 ()

let replica_ids t = List.init t.n (fun i -> i)

let leader_of_view t view = view mod t.n

let pp ppf t =
  Fmt.pf ppf "Prime(n=%d f=%d k=%d quorum=%d)" t.n t.f t.k t.quorum
