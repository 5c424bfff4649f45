(** Section V reaction-time measurement: flip a breaker physically and
    time until the HMI display reflects it. Flips carry random phase so
    they do not lock onto anyone's polling cycle. *)

type sample = { flipped_at : float; reflected_at : float }

val latency : sample -> float

(** Generic driver: schedule [samples] flips [gap] apart; read the
    returned summary and completion count after running the engine. *)
val run :
  ?first_target:bool ->
  engine:Sim.Engine.t ->
  breaker:string ->
  flip:(bool -> unit) ->
  watch_display:((breaker:string -> closed:bool -> unit) -> unit) ->
  samples:int ->
  gap:float ->
  unit ->
  Sim.Stats.Summary.t * int ref

(** Measure a Spire deployment at its first HMI. Raises
    [Invalid_argument] on an unknown breaker. *)
val spire_reaction_time :
  deployment:Deployment.t ->
  breaker:string ->
  samples:int ->
  gap:float ->
  unit ->
  Sim.Stats.Summary.t * int ref

(** Measure the commercial baseline. *)
val commercial_reaction_time :
  engine:Sim.Engine.t ->
  commercial:Commercial.t ->
  breaker:string ->
  samples:int ->
  gap:float ->
  unit ->
  Sim.Stats.Summary.t * int ref
