(* SHA-256 (FIPS 180-4), pure OCaml.

   No crypto package is available in this environment, so the hash the
   whole system depends on is implemented here and checked against the
   FIPS test vectors in the test suite.

   Implementation notes: state and message schedule use native [int]s
   masked to 32 bits — OCaml's 63-bit immediates avoid the boxing that
   Int32 arithmetic would cause, and this hash runs on every simulated
   protocol message. Padding follows the spec exactly (append 0x80, pad
   to 56 mod 64, append 64-bit big-endian bit length). *)

type digest = string (* 32 raw bytes *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  state : int array; (* 8 words, each < 2^32 *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total_len : int; (* bytes; simulator messages stay well below 2^59 *)
}

let init () =
  {
    state =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total_len = 0;
  }

(* Rotations on a doubled word. For [x < 2^32], [x lor (x lsl 32)] holds
   two copies of [x], so bits [n .. n+31] of it are [x] rotated right by
   [n]; OCaml's 63-bit int keeps every bit the rotations below read (the
   largest, 25, reads up to bit 56). The sums they feed are masked once,
   so the Σ/σ functions are plain shifts and XORs with no mask of their
   own: only their low 32 bits matter. *)
let[@inline] dbl x = x lor (x lsl 32)

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let base = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3)))
  done;
  for i = 16 to 63 do
    let x15 = Array.unsafe_get w (i - 15) and x2 = Array.unsafe_get w (i - 2) in
    let d15 = dbl x15 and d2 = dbl x2 in
    let s0 = (d15 lsr 7) lxor (d15 lsr 18) lxor (x15 lsr 3) in
    let s1 = (d2 lsr 17) lxor (d2 lsr 19) lxor (x2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let state = ctx.state in
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2) and d = ref state.(3) in
  let e = ref state.(4) and f = ref state.(5) and g = ref state.(6) and h = ref state.(7) in
  for i = 0 to 63 do
    let de = dbl !e in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = !e land !f lxor (lnot !e land !g) in
    let temp1 = !h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let da = dbl !a in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = !a land (!b lor !c) lor (!b land !c) in
    let temp2 = s0 + maj in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  state.(0) <- (state.(0) + !a) land mask;
  state.(1) <- (state.(1) + !b) land mask;
  state.(2) <- (state.(2) + !c) land mask;
  state.(3) <- (state.(3) + !d) land mask;
  state.(4) <- (state.(4) + !e) land mask;
  state.(5) <- (state.(5) + !f) land mask;
  state.(6) <- (state.(6) + !g) land mask;
  state.(7) <- (state.(7) + !h) land mask

let feed_sub ctx b off len =
  ctx.total_len <- ctx.total_len + len;
  let pos = ref off in
  let stop = off + len in
  (* Fill a partially-filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need len in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while stop - !pos >= 64 do
    compress ctx b !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit b !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let feed_string ctx s =
  feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)

(* Rewind [dst] to [src]'s point in the stream, in place. Only the live
   prefix of the block buffer matters; the message schedule is
   per-compression scratch. *)
let restore ~dst src =
  for i = 0 to 7 do
    Array.unsafe_set dst.state i (Array.unsafe_get src.state i)
  done;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total_len <- src.total_len

(* Pads in place in the block buffer: 0x80, zeros to 56 mod 64 (spilling
   into one more block when fewer than 9 bytes are free), then the 64-bit
   big-endian bit length. Leaves the context spent until a [restore]. *)
let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n < 56 then Bytes.fill buf (n + 1) (55 - n) '\000'
  else begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end;
  let bit_len = ctx.total_len * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (56 - (8 * i))) land 0xFF))
  done;
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = Array.unsafe_get ctx.state i in
    Bytes.unsafe_set out (i * 4) (Char.unsafe_chr (word lsr 24));
    Bytes.unsafe_set out ((i * 4) + 1) (Char.unsafe_chr ((word lsr 16) land 0xFF));
    Bytes.unsafe_set out ((i * 4) + 2) (Char.unsafe_chr ((word lsr 8) land 0xFF));
    Bytes.unsafe_set out ((i * 4) + 3) (Char.unsafe_chr (word land 0xFF))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finalize ctx

let to_hex d =
  let hex = "0123456789abcdef" in
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      Bytes.set out (2 * i) hex.[Char.code c lsr 4];
      Bytes.set out ((2 * i) + 1) hex.[Char.code c land 0xF])
    d;
  Bytes.unsafe_to_string out

let hex_of_string s = to_hex (digest s)
