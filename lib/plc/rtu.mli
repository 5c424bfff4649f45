(** Remote Terminal Unit speaking DNP3: buffers breaker position changes
    as class-1 events with device timestamps (the DNP3 model), serves
    static integrity reads, and executes CROB operate commands. *)

type t

(** Change events buffered before the oldest are shed (256). *)
val event_buffer_limit : int

val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> name:string -> n_points:int -> unit -> t

val name : t -> string

val counters : t -> Sim.Stats.Counter.t

val n_points : t -> int

val pending_events : t -> int

(** Did the event buffer shed events? (Masters must integrity-poll.) *)
val events_overflowed : t -> bool

(** Wire a breaker to a binary point; its changes become events. Raises
    [Invalid_argument] on a bad index. *)
val wire_breaker : t -> index:int -> Breaker.t -> unit

(** Install the analog measurement image served on [Read_analogs]
    (pulled at poll time; signed 32-bit values by point index). *)
val set_analog_source : t -> (unit -> int list) -> unit

(** Process one request (exposed for unit tests). *)
val handle_request : t -> Dnp3.request Dnp3.framed -> Dnp3.response Dnp3.framed

(** Bind the DNP3 outstation service on [host]. *)
val serve_on : t -> Netbase.Host.t -> unit
