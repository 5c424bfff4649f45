(** Prime pre-ordering state: slot certification with 2f + k + 1
    endorsements, per-origin cumulative vectors (aru), summary storage,
    and matrix eligibility. Pure protocol state — the replica does all
    signing and sending.

    Slots and acks are kept until {!release} drops those both executed
    and certified; the replica calls it at checkpoint boundaries. *)

type t

val create : Config.t -> my_id:int -> t

(** Telemetry hook: called once per slot the moment it certifies,
    whichever message completed the quorum. *)
val set_on_certified : t -> (origin:int -> po_seq:int -> unit) -> unit

(** Called each time the vector changes or an emission is forced, i.e.
    whenever {!dirty} is set. *)
val set_on_dirty : t -> (unit -> unit) -> unit

(** Copy of my cumulative certified vector. *)
val aru : t -> int array

(** My next unassigned preorder sequence plus one (i.e. highest assigned). *)
val next_po_seq : t -> int

(** Per-origin reset floor: slots at or below it are void (skipped by
    execution). *)
val floor_of : t -> origin:int -> int

(** Whether [origin]'s slot [po_seq] is released: no message for it may
    create state. False for an out-of-range origin. *)
val released : t -> origin:int -> po_seq:int -> bool

(** Release, per origin, every slot and ack at or below
    [min cursor.(origin) (aru).(origin)]. *)
val release : t -> cursor:int array -> unit

(** Slots still held at or below [cursor] (already executed). *)
val retained_executed : t -> cursor:int array -> int

(** Restart my own sequence at [new_start] after a proactive recovery. *)
val begin_reset : t -> new_start:int -> unit

(** Adopt quorum-backed execution-cursor floors from a checkpoint. *)
val install_floors : t -> cursor:int array -> unit

(** Apply a verified peer origin-reset; returns [true] if it moved the
    floor. *)
val apply_origin_reset : t -> origin:int -> new_start:int -> bool

(** Has the aru advanced since the last summary emission? *)
val dirty : t -> bool

val clear_dirty : t -> unit

(** Force the next summary emission (recovery bootstrap). *)
val force_dirty : t -> unit

val seen_update : t -> Msg.Update.t -> bool

(** Assign one of my client updates to my next slot; the PO-Request
    carries the returned sequence. *)
val assign : t -> Msg.Update.t -> int

(** Handle a peer's PO-Request. [`Ack d] asks the caller to broadcast a
    PO-Ack over digest [d]; [`Already_acked d] asks it to re-broadcast
    (retransmitted request); [`Conflict] flags an equivocating origin. *)
val receive_request :
  t ->
  origin:int ->
  po_seq:int ->
  Msg.Update.t ->
  [ `Ack of Crypto.Sha256.digest | `Already_acked of Crypto.Sha256.digest | `Conflict ]

val receive_ack :
  t -> acker:int -> origin:int -> po_seq:int -> digest:Crypto.Sha256.digest -> unit

(** Keep the freshest summary per replica; [true] if [s] was stored. *)
val receive_summary : t -> Msg.summary -> bool

val stored_summary : t -> int -> Msg.summary option

(** The matrix a leader would propose now: stored summaries plus the
    caller's own current (signed) summary. *)
val matrix : t -> my_summary:Msg.summary -> Msg.matrix

(** Highest preorder sequence of [origin] that at least 2f + k + 1
    summaries in the matrix certify. *)
val eligible_up_to : Config.t -> Msg.matrix -> origin:int -> int

(** Whether the matrix I could propose now (stored summaries plus my own
    vector) makes some origin eligible beyond [eligible.(origin)].
    Allocation-free. *)
val advances : t -> eligible:int array -> bool

(** Whether f + 1 peers' stored summaries certify [origin] beyond
    [executed] (or beyond its reset floor, if higher): then some update of
    [origin] that I have not executed exists. A lone peer, however far
    ahead it claims to be, never suffices. Allocation-free. *)
val peers_ahead : t -> origin:int -> executed:int -> bool

(** Whether my vector equals [a], without copying it. *)
val aru_equals : t -> int array -> bool

(** Store a reconciliation-fetched body. [`Mismatch] if it contradicts
    the digest the slot was certified under. *)
val store_body :
  t -> origin:int -> po_seq:int -> Msg.Update.t -> [ `Stored | `Mismatch ]

val update_for : t -> origin:int -> po_seq:int -> Msg.Update.t option
