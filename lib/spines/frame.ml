(* Coalesced link-frame header codec.

   When the egress queue flushes several payloads to the same neighbor
   inside one coalesce window, they cross the link as a single frame: one
   HMAC, one header, N sub-messages. The header is a Wire-encoded
   manifest of the sub-messages — each entry length-prefixed and required
   to parse to exactly that length, so a corrupted entry rejects the
   header instead of being read into its neighbors — and the receiver checks the decoded manifest against the carried
   payloads before handling any of them. A frame that fails to decode is
   dropped whole and counted; it must never crash the daemon (the red
   team gets to put arbitrary bytes on the wire).

   Every frame header is hashed by the HMAC on both ends, so its size is
   CPU: entries use {!Wire.w_varint} for their integers (origins, client
   ids, priorities and sizes are small; sequence numbers take 2-3 bytes),
   so a plant frame of ~4 messages has a ~67-byte header and its HMAC
   costs 3 SHA-256 compressions, against 5 for fixed 8-byte ints. Layout:

     u8 magic · u8 version · u16 count · count × entry
     entry = varint len · u8 kind · varint origin · varint origin_client
             · varint data_seq · varint priority · varint app_size
             · u8 dst-tag · (varint node · varint client | varint len · bytes) *)

type dst_meta =
  | M_client of { node : int; client : int }
  | M_group of string
  | M_session of string

type meta =
  | M_data of {
      origin : int;
      origin_client : int;
      data_seq : int;
      dst : dst_meta;
      priority : int;
      app_size : int;
    }

let magic = 0xF5

let version = 2

(* u16 count field; far above any realistic flush. *)
let max_msgs = 0xFFFF

(* Entry kind byte. Data is the only kind; the decoder rejects any other
   byte, so a manifest from an older or foreign build never decodes. *)
let kind_data = 0

let name_size s = Wire.varint_size (String.length s) + String.length s

(* Bytes after the entry's length prefix: kind and dst-tag bytes, five
   varints and the destination. Computed, so an entry is written straight
   into the header buffer with no nested encode. *)
let entry_size (M_data d) =
  2 + Wire.varint_size d.origin + Wire.varint_size d.origin_client
  + Wire.varint_size d.data_seq + Wire.varint_size d.priority + Wire.varint_size d.app_size
  +
  match d.dst with
  | M_client { node; client } -> Wire.varint_size node + Wire.varint_size client
  | M_group s | M_session s -> name_size s

let w_name b s =
  Wire.w_varint b (String.length s);
  Buffer.add_string b s

let write_entry b (M_data d as m) =
  Wire.w_varint b (entry_size m);
  Wire.w_u8 b kind_data;
  Wire.w_varint b d.origin;
  Wire.w_varint b d.origin_client;
  Wire.w_varint b d.data_seq;
  Wire.w_varint b d.priority;
  Wire.w_varint b d.app_size;
  match d.dst with
  | M_client { node; client } ->
      Wire.w_u8 b 0;
      Wire.w_varint b node;
      Wire.w_varint b client
  | M_group g ->
      Wire.w_u8 b 1;
      w_name b g
  | M_session s ->
      Wire.w_u8 b 2;
      w_name b s

let rec write_entries b = function
  | [] -> ()
  | m :: ms ->
      write_entry b m;
      write_entries b ms

let encode_header metas =
  let n = List.length metas in
  if n = 0 || n > max_msgs then
    invalid_arg "Frame.encode_header: sub-message count out of range";
  Wire.encode ~size_hint:(4 + (n * 16)) (fun b ->
      Wire.w_u8 b magic;
      Wire.w_u8 b version;
      Wire.w_u16 b n;
      write_entries b metas)

let r_name r = Wire.r_bytes r (Wire.r_varint r)

(* Parses one entry in place and checks that it consumed exactly its
   length prefix: a mismatch, either way, rejects the whole header. *)
let decode_entry r =
  let len = Wire.r_varint r in
  let stop = Wire.remaining r - len in
  if Wire.r_u8 r <> kind_data then raise Wire.Truncated;
  let origin = Wire.r_varint r in
  let origin_client = Wire.r_varint r in
  let data_seq = Wire.r_varint r in
  let priority = Wire.r_varint r in
  let app_size = Wire.r_varint r in
  let dst =
    match Wire.r_u8 r with
    | 0 ->
        let node = Wire.r_varint r in
        let client = Wire.r_varint r in
        M_client { node; client }
    | 1 -> M_group (r_name r)
    | 2 -> M_session (r_name r)
    | _ -> raise Wire.Truncated
  in
  if Wire.remaining r <> stop then raise Wire.Truncated;
  M_data { origin; origin_client; data_seq; dst; priority; app_size }

let decode_header s =
  try
    let r = Wire.reader s in
    if Wire.r_u8 r <> magic then None
    else if Wire.r_u8 r <> version then None
    else begin
      let n = Wire.r_u16 r in
      if n = 0 then None
      else begin
        let metas = ref [] in
        for _ = 1 to n do
          metas := decode_entry r :: !metas
        done;
        if Wire.at_end r then Some (List.rev !metas) else None
      end
    end
  with Wire.Truncated -> None
