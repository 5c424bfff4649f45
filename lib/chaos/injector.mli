(** Applies fault actions to a running deployment: link faults through
    [Spines.Node.set_fault_injector] hooks on every replica daemon,
    replica crashes through the proactive-recovery entry points, leader
    faults through Prime misbehaviour knobs. All randomness comes from
    the supplied RNG, so fault patterns replay from the chaos seed. *)

type t

(** Installs per-message fault hooks on every replica's internal and
    external Spines daemons. *)
val create : rng:Sim.Rng.t -> Spire.Deployment.t -> t

val apply : t -> Fault.action -> unit

(** Fault-burden observers, for the runner's health policy. *)
val crashed_count : t -> int

val leader_fault_active : t -> bool

(** Replicas cut off from every peer by active partitions. *)
val isolated_count : t -> int

(** Highest drop probability among active lossy links (0 if none). *)
val max_active_drop : t -> float
