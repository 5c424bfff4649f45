(* Binary wire codec for canonical (signed) message encodings.

   Writers append fixed-width big-endian fields to a [Buffer.t]; the
   reader walks the same layout back. The codec replaces the
   sprintf/hex-string encodings that used to dominate the crypto hot
   path: a 32-byte digest is written as 32 raw bytes instead of 64 hex
   characters inside a formatted string, and integers cost no decimal
   rendering.

   Byte stability is a signature-compatibility property: two deployments
   encoding the same logical message must produce identical bytes, or
   signatures made by one would not verify at the other. Everything here
   is therefore canonical, and has no optional padding. The one variable-width
   field, [w_varint], is canonical too: minimal LEB128, one encoding per
   int. It has no reader; its one user compares encoded bytes. *)

exception Truncated

let w_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Wire.w_u8: out of range";
  Buffer.add_char b (Char.unsafe_chr v)

let w_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Wire.w_u16: out of range";
  Buffer.add_char b (Char.unsafe_chr (v lsr 8));
  Buffer.add_char b (Char.unsafe_chr (v land 0xFF))

let w_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.w_u32: out of range";
  Buffer.add_char b (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.unsafe_chr (v land 0xFF))

(* Full OCaml int (63-bit, sign included) as 8 bytes big-endian. *)
let w_int b v =
  for i = 7 downto 0 do
    Buffer.add_char b (Char.unsafe_chr ((v asr (i * 8)) land 0xFF))
  done

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

(* IEEE-754 double as its 8-byte big-endian bit pattern: bit-exact round
   trips, which keeps float-carrying records canonical. *)
let w_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    Buffer.add_char b
      (Char.unsafe_chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (i * 8)) 0xFFL)))
  done

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

(* Digests are fixed-width: 32 raw bytes, no length prefix. *)
let w_digest b d =
  if String.length d <> 32 then invalid_arg "Wire.w_digest: digest must be 32 bytes";
  Buffer.add_string b d

let w_int_array b a =
  w_u32 b (Array.length a);
  Array.iter (w_int b) a

(* Zigzag folds the sign into bit 0, so small negative ints stay short;
   LEB128 then spends 7 bits per byte, low group first. A 63-bit int
   needs at most 9 bytes. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let varint_size v =
  let rec go u n = if u lsr 7 = 0 then n else go (u lsr 7) (n + 1) in
  go (zigzag v) 1

let w_varint b v =
  let u = ref (zigzag v) in
  while !u lsr 7 <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!u land 0x7F lor 0x80));
    u := !u lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !u)

let w_opt b w = function
  | None -> w_bool b false
  | Some v ->
      w_bool b true;
      w b v

(* --- reader ------------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let remaining r = String.length r.data - r.pos

let at_end r = remaining r = 0

let need r n = if remaining r < n then raise Truncated

let r_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  let hi = r_u8 r in
  let lo = r_u8 r in
  (hi lsl 8) lor lo

let r_u32 r =
  need r 4;
  let v =
    (Char.code r.data.[r.pos] lsl 24)
    lor (Char.code r.data.[r.pos + 1] lsl 16)
    lor (Char.code r.data.[r.pos + 2] lsl 8)
    lor Char.code r.data.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let r_int r =
  need r 8;
  (* The wire carries a sign-extended 64-bit pattern of a native (63-bit)
     int, so the top two bits of the first byte are always equal ([w_int]
     writes [v asr 56]: 0x00-0x3F for v >= 0, 0xC0-0xFF for v < 0). An
     unequal pair is a pattern no writer produces — accumulating with
     [lsl] would silently drop the 64th bit and decode it to the same
     value as its canonical sibling, giving two byte strings one
     meaning. Canonicality is what lets digest/signature checks stand in
     for byte equality, so reject it as malformed. *)
  let b0 = Char.code r.data.[r.pos] in
  if (b0 lsr 7) lxor ((b0 lsr 6) land 1) <> 0 then raise Truncated;
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + i]
  done;
  r.pos <- r.pos + 8;
  !v

let r_f64 r =
  need r 8;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  Int64.float_of_bits !bits

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> raise Truncated

let r_bytes r len =
  if len < 0 then raise Truncated;
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_str r = r_bytes r (r_u32 r)

let r_digest r = r_bytes r 32

(* The length is checked against the bytes present before allocating: a
   hostile u32 length must not size a multi-gigabyte array. *)
let r_int_array r =
  let len = r_u32 r in
  need r (8 * len);
  Array.init len (fun _ -> r_int r)

let r_opt rd r = if r_bool r then Some (rd r) else None

(* Convenience: run writers against a buffer and return the bytes.

   Encoding happens on the packet path (every signed body), so the
   top-level call reuses one scratch buffer — [Buffer.clear] keeps the
   backing bytes, leaving only the unavoidable result string allocated.
   Encoders may themselves call [encode] (e.g. a digest over nested
   update encodings); nested calls see the scratch busy and fall back to
   a fresh buffer, preserving reentrancy. *)
let scratch = Buffer.create 256

let scratch_busy = ref false

(* Don't let one huge encode (a checkpoint, say) pin megabytes forever. *)
let scratch_retain_max = 1 lsl 16

let encode ?(size_hint = 64) f =
  if !scratch_busy then begin
    let b = Buffer.create size_hint in
    f b;
    Buffer.contents b
  end
  else begin
    scratch_busy := true;
    Buffer.clear scratch;
    match f scratch with
    | () ->
        let s = Buffer.contents scratch in
        if Buffer.length scratch > scratch_retain_max then Buffer.reset scratch;
        scratch_busy := false;
        s
    | exception e ->
        scratch_busy := false;
        raise e
  end
