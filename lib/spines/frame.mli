(** Coalesced link-frame header codec: a Wire-encoded manifest of the
    sub-messages packed into one link frame.

    Each manifest entry is length-prefixed, with its integers as
    {!Wire.w_varint}s (format version 2; there is no decoder for any other
    version). An entry that does not parse to exactly its length rejects
    the whole header, and {!decode_header} is total — malformed or
    truncated input yields [None], never an exception. The daemon drops
    (and counts) any frame whose manifest fails to decode or disagrees
    with the carried payloads. *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

(** Wire-relevant fields of one coalesced sub-message (the payload
    itself travels alongside; hellos are never coalesced). *)
type meta =
  | M_data of {
      origin : int;
      origin_client : int;
      data_seq : int;
      dst : dst_meta;
      priority : int;
      app_size : int;
    }

(** Raises [Invalid_argument] on an empty list or more than 65535
    entries. *)
val encode_header : meta list -> string

(** Total decoder: [None] on any malformed, truncated, wrong-magic/version
    or unknown-entry-kind input. Canonical: any header it accepts is
    exactly what {!encode_header} makes of the result. *)
val decode_header : string -> meta list option
