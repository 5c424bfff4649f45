(* Coalesced link-frame manifest.

   When the egress queue flushes several payloads to the same neighbor
   inside one coalesce window, they cross the link as a single frame: one
   HMAC, one header, N sub-messages. The header is a Wire-encoded
   manifest of the sub-messages, and the receiver checks it against the
   carried payloads before handling any of them. A frame that fails the
   check is dropped whole and counted; it must never crash the daemon
   (the red team gets to put arbitrary bytes on the wire).

   A message's manifest entry never changes as it is relayed, so it is
   encoded once, where the message is created, and travels with it: a hop
   builds a header by concatenating its messages' entries. Every frame
   header is hashed by the HMAC on both ends, so its size is CPU: entries
   use {!Wire.w_varint} for their integers (origins, client ids and
   sizes are small; sequence numbers take 2-3 bytes), so a plant frame
   of ~4 messages has a ~63-byte header and its HMAC costs 3 SHA-256
   compressions, against 5 for fixed 8-byte ints. The entry ends with
   the origin's stamp, its neighbors it could not reach (usually none).
   Layout (format version 4):

     u8 magic · u8 version · u16 count · count × entry
     entry = varint len · varint origin · varint origin_client
             · varint data_seq · varint app_size
             · u8 dst-tag · (varint node · varint client | varint len · bytes)
             · varint n · n × varint unreached   (strictly ascending)

   The receiver does not decode the header: it compares its bytes with
   the carried messages' entries, in place. The encoding is canonical —
   one byte string per manifest, as the varints are minimal, each
   entry's length prefix is exact and {!entry} refuses an unsorted stamp
   — so byte equality accepts exactly the headers that a total decoder
   followed by a field-by-field comparison with the carried messages
   would accept, and nothing else. *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

type meta = {
  origin : int;
  origin_client : int;
  data_seq : int;
  dst : dst_meta;
  app_size : int;
  unreached : int list;
}

let magic = 0xF5

let version = 4

(* Bytes before the first entry: magic, version and the u16 count. *)
let prefix_size = 4

(* u16 count field; far above any realistic flush. *)
let max_msgs = 0xFFFF

let name_size s = Wire.varint_size (String.length s) + String.length s

(* Bytes after the entry's length prefix: the dst-tag byte, four
   varints, the destination and the stamp. *)
let body_size d =
  1 + Wire.varint_size d.origin + Wire.varint_size d.origin_client
  + Wire.varint_size d.data_seq + Wire.varint_size d.app_size
  + (match d.dst with
    | M_client { node; client } -> Wire.varint_size node + Wire.varint_size client
    | M_group s | M_session s -> name_size s)
  + List.fold_left (fun acc id -> acc + Wire.varint_size id)
      (Wire.varint_size (List.length d.unreached)) d.unreached

let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | [ _ ] | [] -> true

let w_name b s =
  Wire.w_varint b (String.length s);
  Buffer.add_string b s

let entry d =
  if not (ascending d.unreached) then invalid_arg "Frame.entry: stamp not strictly ascending";
  let len = body_size d in
  Wire.encode ~size_hint:(Wire.varint_size len + len) (fun b ->
      Wire.w_varint b len;
      Wire.w_varint b d.origin;
      Wire.w_varint b d.origin_client;
      Wire.w_varint b d.data_seq;
      Wire.w_varint b d.app_size;
      (match d.dst with
      | M_client { node; client } ->
          Wire.w_u8 b 0;
          Wire.w_varint b node;
          Wire.w_varint b client
      | M_group g ->
          Wire.w_u8 b 1;
          w_name b g
      | M_session s ->
          Wire.w_u8 b 2;
          w_name b s);
      Wire.w_varint b (List.length d.unreached);
      List.iter (Wire.w_varint b) d.unreached)

let rec entries_size entry_of acc = function
  | [] -> acc
  | m :: ms -> entries_size entry_of (acc + String.length (entry_of m)) ms

let rec blit_entries entry_of buf pos = function
  | [] -> ()
  | m :: ms ->
      let e = entry_of m in
      Bytes.blit_string e 0 buf pos (String.length e);
      blit_entries entry_of buf (pos + String.length e) ms

let encode_header entry_of msgs =
  let n = List.length msgs in
  if n = 0 || n > max_msgs then
    invalid_arg "Frame.encode_header: sub-message count out of range";
  let buf = Bytes.create (entries_size entry_of prefix_size msgs) in
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 version;
  Bytes.set_uint16_be buf 2 n;
  blit_entries entry_of buf prefix_size msgs;
  Bytes.unsafe_to_string buf

(* The first [i + 1] bytes of [e] occur in [s] at [pos]; the caller has
   checked they fit. *)
let rec equal_at s pos e i = i < 0 || (Char.equal s.[pos + i] e.[i] && equal_at s pos e (i - 1))

let rec entries_match entry_of header pos = function
  | [] -> pos = String.length header
  | m :: ms ->
      let e = entry_of m in
      pos + String.length e <= String.length header
      && equal_at header pos e (String.length e - 1)
      && entries_match entry_of header (pos + String.length e) ms

let header_matches entry_of header msgs =
  let n = List.length msgs in
  n > 0
  && String.length header >= prefix_size
  && String.get_uint8 header 0 = magic
  && String.get_uint8 header 1 = version
  && String.get_uint16_be header 2 = n
  && entries_match entry_of header prefix_size msgs
