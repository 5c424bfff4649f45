(** Continuously-running safety/liveness invariant checker for chaos
    scenarios: agreement safety, at-most-once breaker actuation,
    bounded-delay liveness while healthy, and recovery liveness. *)

type violation = { v_time : float; v_invariant : string; v_detail : string }

type t

(** [is_healthy] is the runner's fault-burden policy: liveness is only
    enforced while it returns [true]. *)
val create :
  ?liveness_bound:float ->
  engine:Sim.Engine.t ->
  is_healthy:(unit -> bool) ->
  unit ->
  t

(** Install execution/actuation hooks on every replica and proxy of the
    deployment and start the periodic progress/recovery poll. *)
val attach : t -> Spire.Deployment.t -> unit

(** Start the power-physics sweep against the deployment's electrical
    overlay every 0.1 s: no flow through dead lines, generation/served
    balance, frequency bounds, cascade containment — plus the chi-square
    bad-data sweep over the replicated telemetry image, which records a
    ["bad-data"] violation and an [fdia.flagged] flight alarm once the
    flag persists across consecutive sweeps. Usable with or without
    {!attach}. *)
val attach_power : t -> Spire.Deployment.t -> unit

(** Time the chi-square verdict landed, if it has. *)
val fdia_detected_at : t -> float option

val estimator_sweeps : t -> int

(** Most recent estimator report. *)
val estimator_last : t -> Estimator.report option

(** Observer called synchronously on every recorded violation (the chaos
    runner dumps the flight recorder on the first one). *)
val set_on_violation : t -> (violation -> unit) -> unit

val stop : t -> unit

(** Direct observation entry points (used by the hooks; exposed so tests
    can feed synthetic observations). *)
val note_execution : t -> replica:int -> exec_seq:int -> identity:string -> unit

val note_actuation : t -> proxy:string -> key:string -> unit

(** Announce that a replica was restarted from a clean image; it must
    rejoin (running, origin re-based) within 30 s. *)
val expect_recovery : t -> replica:int -> unit

(** Chronological. *)
val violations : t -> violation list

(** Restart-to-rejoin latencies, completion order. *)
val recovery_latencies : t -> float list

val executions_checked : t -> int

val actuations_checked : t -> int
