(** Prime replication parameters: n = 3f + 2k + 1 replicas tolerate f
    intrusions while k replicas undergo proactive recovery, with quorums
    of 2f + k + 1. The timer periods no deployment tunes are constants. *)

(** Minimum spacing of the leader's pre-prepares; also its idle tick
    (30 ms). *)
val delta_pp : float

(** Minimum spacing of a replica's PO-summaries (10 ms). *)
val summary_period : float

(** Idle summary refresh (0.5 s): once anything has certified, a replica
    whose vector has not changed re-sends its summary this long after its
    last one, so a lost summary cannot leave matrices stale. *)
val summary_refresh_period : float

(** Suspect-leader evaluation interval (0.25 s). *)
val tat_check_period : float

(** Missing-update re-request and retransmission interval (0.1 s). *)
val reconcile_period : float

type t = {
  f : int; (* tolerated intrusions *)
  k : int; (* simultaneous proactive recoveries *)
  n : int; (* 3f + 2k + 1 *)
  quorum : int; (* 2f + k + 1 *)
  tat_allowance : float; (* acceptable turnaround beyond network delay *)
  log_retention : int; (* ordered-log entries kept for catchup *)
  checkpoint_interval : int;
      (* executions between durable checkpoints; at the same boundaries a
         replica releases executed ordering instances and pre-order
         slots, so it holds one to two intervals of executed history *)
}

(** Raises [Invalid_argument] for f < 1, k < 0, n > [Sys.int_size - 1]
    (voter sets are bit sets, one bit per replica) or a non-positive
    [checkpoint_interval]. *)
val create :
  ?f:int ->
  ?k:int ->
  ?tat_allowance:float ->
  ?log_retention:int ->
  ?checkpoint_interval:int ->
  unit ->
  t

(** The 2017 red-team configuration: 4 replicas (f = 1, k = 0). *)
val red_team : unit -> t

(** The 2018 power-plant configuration: 6 replicas (f = 1, k = 1). *)
val power_plant : unit -> t

val replica_ids : t -> int list

val leader_of_view : t -> int -> int

val pp : Format.formatter -> t -> unit
