(** Pipeline tracing: fixed stage sequences correlated by an out-of-band
    trace key (the canonical [Scada.Op] encoding), so instrumentation
    never changes message contents or the deterministic schedule. *)

type instance = {
  trace : string;
  mutable marks : (string * float) list;
  mutable complete : bool;
}

type store

(** [create_store ~opens ~closes ()]: stages in [opens] begin a new
    instance for their trace key; stages in [closes] complete it. The
    store keeps every completed instance. *)
val create_store : ?opens:string list -> ?closes:string list -> unit -> store

(** Record stage [stage] for trace key [trace] at [time]. Opening stages
    begin a fresh instance (abandoning any still-open one for the key);
    only the first occurrence of each stage per instance is kept; closing
    stages complete the instance. Marks with no open instance are counted
    as orphans and dropped. *)
val mark : store -> trace:string -> stage:string -> time:float -> unit

(** Completed instances, oldest first, marks in causal order. *)
val completed : store -> instance list

val completed_count : store -> int

val active_count : store -> int

(** Instances re-opened before closing (flip never reached the HMI). *)
val abandoned_count : store -> int

(** Marks dropped for lack of an open instance. *)
val orphan_count : store -> int

val mark_time : instance -> string -> float option

(** Marks in causal order whether or not the instance completed. *)
val marks : instance -> (string * float) list

(** [(label, summary)] of [to_stage - from_stage] latencies over
    completed instances; instances missing either endpoint are
    skipped. *)
val stage_breakdown :
  store -> stages:(string * string * string) list -> (string * Sim.Stats.Summary.t) list

val reset : store -> unit

(** {2 Trace keys} — canonical [Scada.Op] encodings, rebuilt here to keep
    [obs] below [scada] in the dependency order. *)

val status_key : breaker:string -> closed:bool -> string

val command_key : breaker:string -> close:bool -> string
