(** Replicated SCADA application state: per-breaker reported position and
    last supervisory command, with canonical serialization and digest for
    the application-level state transfer (Section III-A).

    The digest is maintained incrementally and hashed when it is read:
    Merkle trees over the breakers (canonical order frozen at {!create}),
    the per-origin batch cursors and the telemetry points. An applied
    operation only marks the leaves it changed; {!digest} and
    {!digest_root} hash those leaves and their ancestors, each once, and
    are field reads when nothing changed since the last read. *)

type t

val create : Plc.Power.scenario -> t

val scenario : t -> Plc.Power.scenario

val ops_applied : t -> int

(** Last reported field position ([false] for unknown breakers). *)
val reported_closed : t -> string -> bool

(** Apply an ordered operation; returns [true] if a Status changed the
    reported position. Unknown breakers are deterministic no-ops. *)
val apply : t -> exec_seq:int -> Op.t -> bool

(** Like {!apply}, but returns the status changes the op produced in
    report order — a batch may change many breakers at once. *)
val apply_changes : t -> exec_seq:int -> Op.t -> (string * bool) list

(** Last applied batch cursor for an origin proxy (0 if none). The
    cursor table is replicated state: it rides {!serialize}, so replay
    of an old aggregate is rejected identically on every replica. *)
val batch_cursor : t -> string -> int

(** Energized loads given the reported breaker positions. *)
val energized : t -> (string * bool) list

(** Tri-state energization: feeds whose path crosses breakers this state
    does not track (cross-shard segments) report [`Unknown] instead of
    being conflated with de-energized; a known-open breaker still proves
    [`De_energized]. *)
val energized_tri : t -> (string * [ `Energized | `De_energized | `Unknown ]) list

(** Scaled reading for a measurement point; [None] until first reported
    (and for names outside the frozen telemetry slots). *)
val telemetry_value : t -> string -> int option

(** Canonical binary blob (Wire-encoded, breakers in the frozen name
    order). Memoized: repeated calls between mutations return the same
    string without re-encoding. *)
val serialize : t -> string

(** Hex rendering of {!digest_root}, cached until the next change. *)
val digest : t -> string

(** The raw 32-byte state root, the preferred form for digest voting and
    cross-replica comparison (no hex rendering). Hashes only the leaves
    changed since the last read. *)
val digest_root : t -> Crypto.Sha256.digest

(** From-scratch digest recompute that bypasses the live trees;
    differential tests compare it with {!digest}. Does not flush or
    mutate the live trees or cached root. *)
val recompute_digest : t -> string

(** [(digest_cached, digest_recompute, serializations)] counters for
    health probes and benches. *)
val stats : t -> int * int * int

(** Install a serialized state with full-replacement semantics: every
    breaker takes the blob's entry, and the cursor table and telemetry
    are rebuilt from the blob alone. [Error] on malformed or
    non-canonical blobs (bad version, not exactly one entry per breaker,
    unsorted entries, cursors < 1, trailing or truncated bytes) —
    nothing is mutated on error. *)
val load : t -> string -> (unit, string) result

(** The digest root [load t blob] would leave in place, computed without
    touching the live state. Install paths use it to bind a checkpoint's
    state blob to the [ck_app_root] its signed Merkle root covers. *)
val root_of_blob : t -> string -> (Crypto.Sha256.digest, string) result

(** Ground-truth reset: wipe to defaults; the proxies' next polling round
    repopulates from the field devices. *)
val reset : t -> unit
