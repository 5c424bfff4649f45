(** The red-team exercise's required workload generator: cycle through
    the scenario's breakers, commanding each to the opposite of its
    displayed state, through the deployment's first HMI. *)

type t

val create : Deployment.t -> t

val commands_issued : t -> int

(** Raises [Invalid_argument] if already running. *)
val start : t -> period:float -> unit

val stop : t -> unit
