(** Coalesced link-frame manifest: a Wire-encoded list of the
    sub-messages packed into one link frame.

    Each message's manifest entry is encoded once, by {!entry}, where the
    message is created; a header is the entries of its messages behind a
    fixed prefix (format version 4: length-prefixed entries with
    {!Wire.w_varint} integers, ending with the origin's stamp of
    unreached neighbors). There is no decoder: the receiver checks
    a header by comparing its bytes with the carried messages' entries.
    The encoding is canonical, so that comparison accepts exactly the
    headers a total decoder plus a field-by-field comparison would. The
    daemon drops (and counts) any frame whose header does not match. *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

(** Wire-relevant fields of one coalesced sub-message (the payload
    itself travels alongside; hellos are never coalesced). [unreached]
    is the origin's stamp: the neighbors whose links it saw down when it
    sent the message, in strictly ascending order. *)
type meta = {
  origin : int;
  origin_client : int;
  data_seq : int;
  dst : dst_meta;
  app_size : int;
  unreached : int list;
}

(** The message's manifest entry, length prefix included. Injective:
    distinct metas give distinct entries. Raises [Invalid_argument] if
    [unreached] is not strictly ascending, so each meta has exactly one
    spelling. *)
val entry : meta -> string

(** [encode_header entry_of msgs] is the header of a frame carrying
    [msgs], each with the entry [entry_of m]. Raises [Invalid_argument]
    on an empty list or more than 65535 messages. *)
val encode_header : ('a -> string) -> 'a list -> string

(** [header_matches entry_of header msgs] is [true] iff [header] is
    byte-equal to [encode_header entry_of msgs]. Total and
    allocation-free: any bytes yield a verdict, never an exception. *)
val header_matches : ('a -> string) -> string -> 'a list -> bool
