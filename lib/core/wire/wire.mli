(** Binary wire codec for canonical (signed) message encodings.

    Writers append fixed-width big-endian fields (and one canonical,
    write-only varint) to a [Buffer.t]; the reader walks the fixed-width
    layout back.
    Encodings are canonical by construction — the same logical message
    always produces the same bytes, the property signatures need
    (signature compatibility across deployments). *)

(** Raised by readers on truncated or malformed input. *)
exception Truncated

val w_u8 : Buffer.t -> int -> unit

val w_u16 : Buffer.t -> int -> unit

val w_u32 : Buffer.t -> int -> unit

(** Full native int as 8 bytes big-endian (sign-extended). *)
val w_int : Buffer.t -> int -> unit

val w_bool : Buffer.t -> bool -> unit

(** IEEE-754 double as its 8-byte big-endian bit pattern (bit-exact
    round trip). *)
val w_f64 : Buffer.t -> float -> unit

(** Length-prefixed (u32) byte string. *)
val w_str : Buffer.t -> string -> unit

(** Exactly 32 raw bytes, no length prefix. Raises [Invalid_argument] on
    any other length. *)
val w_digest : Buffer.t -> string -> unit

val w_int_array : Buffer.t -> int array -> unit

(** Full native int as a zigzag LEB128 varint: 1 byte for [-64..63], at
    most 9 bytes. The only variable-width field. Canonical: each int has
    exactly one encoding, so encoded bytes can be compared in place of
    decoded values. There is no reader. *)
val w_varint : Buffer.t -> int -> unit

(** Bytes {!w_varint} writes for this int. *)
val varint_size : int -> int

(** Presence flag byte, then the value if present. *)
val w_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

type reader

val reader : string -> reader

val remaining : reader -> int

val at_end : reader -> bool

val r_u8 : reader -> int

val r_u16 : reader -> int

val r_u32 : reader -> int

(** Rejects (raises {!Truncated}) non-canonical sign-extension patterns
    no {!w_int} produces, so a decoded blob re-encodes byte-identically. *)
val r_int : reader -> int

val r_bool : reader -> bool

val r_f64 : reader -> float

val r_str : reader -> string

(** The next [len] raw bytes, copied out. Raises {!Truncated} on a
    negative [len] or when fewer than [len] bytes remain. *)
val r_bytes : reader -> int -> string

val r_digest : reader -> string

val r_int_array : reader -> int array

val r_opt : (reader -> 'a) -> reader -> 'a option

(** [encode ?size_hint f] runs [f] against a fresh buffer and returns its
    contents. *)
val encode : ?size_hint:int -> (Buffer.t -> unit) -> string
