(** Telemetry registry: the SCADA pipeline-stage marks behind one
    default-off [enabled] switch. A mark costs a load and a branch when
    disabled — no allocation, not even of its trace key — and
    instrumentation is purely passive, so telemetry off leaves the
    deterministic simulation schedule bit-identical. *)

type t

(** Standard SCADA pipeline stage names, in causal order. *)

val stage_flip : string
val stage_report : string
val stage_accept : string
val stage_preorder : string
val stage_execute : string
val stage_push : string
val stage_repaint : string
val stage_command : string
val stage_actuate : string

(** Fresh registry, disabled, with the standard pipeline stages. *)
val create : unit -> t

(** The global registry the stack's instrumentation records into. *)
val default : t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** {2 Recording — no-ops while disabled} *)

(** Record a pipeline stage mark (see {!Span.mark}) under a trace key
    the caller already holds. *)
val mark : t -> trace:string -> stage:string -> time:float -> unit

(** [mark] under {!Span.status_key}, built only when enabled. *)
val mark_status : t -> breaker:string -> closed:bool -> stage:string -> time:float -> unit

(** [mark] under {!Span.command_key}, built only when enabled. *)
val mark_command : t -> breaker:string -> close:bool -> stage:string -> time:float -> unit

(** {2 Reading} *)

val spans : t -> Span.store

(** Drop all recorded marks (keeps the enabled flag). *)
val reset : t -> unit

(** [with_enabled t f]: reset [t], enable it, run [f], restore the
    previous enabled state (even on exceptions). *)
val with_enabled : t -> (unit -> 'a) -> 'a
