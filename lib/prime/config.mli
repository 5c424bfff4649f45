(** Prime replication parameters: n = 3f + 2k + 1 replicas tolerate f
    intrusions while k replicas undergo proactive recovery, with quorums
    of 2f + k + 1. *)

type t = {
  f : int; (* tolerated intrusions *)
  k : int; (* simultaneous proactive recoveries *)
  n : int; (* 3f + 2k + 1 *)
  quorum : int; (* 2f + k + 1 *)
  delta_pp : float; (* minimum spacing of the leader's pre-prepares; also its idle tick *)
  summary_period : float; (* minimum spacing of a replica's PO-summaries *)
  heartbeat_period : float; (* idle-leader pre-prepare heartbeat *)
  tat_check_period : float; (* suspect-leader evaluation interval *)
  tat_allowance : float; (* acceptable turnaround beyond network delay *)
  reconcile_period : float; (* missing-update re-request interval *)
  log_retention : int; (* ordered-log entries kept for catchup *)
  checkpoint_interval : int;
      (* executions between durable checkpoints; at the same boundaries a
         replica releases executed ordering instances and pre-order
         slots, so it holds one to two intervals of executed history *)
  wal_segment_size : int; (* bytes per WAL segment before rotation *)
  fsync_every : int; (* WAL appends between durability points *)
}

(** Raises [Invalid_argument] for f < 1 or k < 0 (and on out-of-range
    store knobs). *)
val create :
  ?f:int ->
  ?k:int ->
  ?delta_pp:float ->
  ?summary_period:float ->
  ?heartbeat_period:float ->
  ?tat_check_period:float ->
  ?tat_allowance:float ->
  ?reconcile_period:float ->
  ?log_retention:int ->
  ?checkpoint_interval:int ->
  ?wal_segment_size:int ->
  ?fsync_every:int ->
  unit ->
  t

(** The 2017 red-team configuration: 4 replicas (f = 1, k = 0). *)
val red_team : unit -> t

(** The 2018 power-plant configuration: 6 replicas (f = 1, k = 1). *)
val power_plant : unit -> t

val replica_ids : t -> int list

val leader_of_view : t -> int -> int

val pp : Format.formatter -> t -> unit
