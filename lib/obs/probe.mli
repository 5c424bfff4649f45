(** Health probes: named closures returning live (metric, value)
    snapshots of a subsystem, registered at construction time and polled
    on demand. Registration is gated on [enabled] (default off) so the
    default registry never accumulates closures outside an observing
    harness; sampling is read-only and deterministic (probes and metrics
    sorted by name). *)

type snapshot = (string * float) list

type t

val create : unit -> t

(** The global probe registry subsystems register into. *)
val default : t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Instance label: while [Some l], registered probe names get an
    ["@l"] suffix ("prime.replica.2@s03"). A suffix — never a prefix —
    so the subsystem prefixes alert rules match on stay intact. *)
val set_label : t -> string option -> unit

(** Run [f] with the label set, restoring the previous label after. *)
val with_label : t -> string -> (unit -> 'a) -> 'a

(** Register (or replace — newest instance wins) a probe. No-op while
    disabled. *)
val register : t -> name:string -> (unit -> snapshot) -> unit

(** Removes under the current label, mirroring {!register}. *)
val unregister : t -> string -> unit

val count : t -> int

(** Drop every registered probe. *)
val reset : t -> unit

(** Poll every probe: [(probe name, metrics)] sorted by probe name,
    metrics sorted by metric name. *)
val sample : t -> (string * snapshot) list

val sample_json : (string * snapshot) list -> Json.t
