(* Coalesced link-frame header codec.

   When the egress queue flushes several payloads to the same neighbor
   inside one coalesce window, they cross the link as a single frame: one
   HMAC, one header, N sub-messages. The header is a Wire-encoded
   manifest of the sub-messages — each entry length-prefixed so the
   reader can never run past a corrupted sub-entry into the next one —
   and the receiver checks the decoded manifest against the carried
   payloads before handling any of them. A frame that fails to decode is
   dropped whole and counted; it must never crash the daemon (the red
   team gets to put arbitrary bytes on the wire). *)

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

let version = 1

(* u16 count field; far above any realistic flush. *)
let max_msgs = 0xFFFF

(* Entry kind byte. Data is the only kind; the decoder rejects any other
   byte, so a manifest from an older or foreign build never decodes. *)
let kind_data = 0

let encode_meta m =
  Wire.encode ~size_hint:64 (fun b ->
      match m with
      | M_data d ->
          Wire.w_u8 b kind_data;
          Wire.w_int b d.origin;
          Wire.w_int b d.origin_client;
          Wire.w_int b d.data_seq;
          Wire.w_int b d.priority;
          Wire.w_int b d.app_size;
          (match d.dst with
          | M_client { node; client } ->
              Wire.w_u8 b 0;
              Wire.w_int b node;
              Wire.w_int b client
          | M_group g ->
              Wire.w_u8 b 1;
              Wire.w_str b g
          | M_session s ->
              Wire.w_u8 b 2;
              Wire.w_str b s))

let encode_header metas =
  let n = List.length metas in
  if n = 0 || n > max_msgs then
    invalid_arg "Frame.encode_header: sub-message count out of range";
  Wire.encode ~size_hint:(16 + (n * 64)) (fun b ->
      Wire.w_u8 b magic;
      Wire.w_u8 b version;
      Wire.w_u16 b n;
      List.iter (fun m -> Wire.w_str b (encode_meta m)) metas)

(* Parses one length-delimited manifest entry from a bounded sub-view of
   the header — no per-entry [String.sub] copy — and must consume the
   view exactly. *)
let decode_meta r =
  if Wire.r_u8 r <> kind_data then raise Wire.Truncated;
  let origin = Wire.r_int r in
  let origin_client = Wire.r_int r in
  let data_seq = Wire.r_int r in
  let priority = Wire.r_int r in
  let app_size = Wire.r_int r in
  let dst =
    match Wire.r_u8 r with
    | 0 ->
        let node = Wire.r_int r in
        let client = Wire.r_int r in
        M_client { node; client }
    | 1 -> M_group (Wire.r_str r)
    | 2 -> M_session (Wire.r_str r)
    | _ -> raise Wire.Truncated
  in
  if Wire.at_end r then M_data { origin; origin_client; data_seq; dst; priority; app_size }
  else raise Wire.Truncated

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
          metas := decode_meta (Wire.r_str_reader r) :: !metas
        done;
        if Wire.at_end r then Some (List.rev !metas) else None
      end
    end
  with Wire.Truncated | Invalid_argument _ -> None
