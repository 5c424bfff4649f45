(* HMAC-SHA256 (RFC 2104). Keys longer than the 64-byte block are hashed
   first, shorter keys are zero-padded, per the RFC.

   The inner/outer key blocks depend only on the key, so a [schedule]
   absorbs them once; each subsequent MAC under the same key rewinds one
   scratch context to them instead of re-deriving and re-compressing the
   padded key blocks, and allocates only the inner and outer digests.
   Long-lived keys (replica signing keys, the Spines group key) pay the
   key setup once per key rather than twice per message. The scratch
   context makes a schedule mutable: it must not be shared across
   domains. *)

let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

type schedule = { inner : Sha256.ctx; outer : Sha256.ctx; scratch : Sha256.ctx }

let schedule ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed_string inner (xor_with key 0x36);
  let outer = Sha256.init () in
  Sha256.feed_string outer (xor_with key 0x5c);
  { inner; outer; scratch = Sha256.init () }

(* The scratch context holds the inner hash of the message; finish it
   and reuse the context for the outer hash. *)
let finish sched =
  let inner = Sha256.finalize sched.scratch in
  Sha256.restore ~dst:sched.scratch sched.outer;
  Sha256.feed_string sched.scratch inner;
  Sha256.finalize sched.scratch

let mac_sched sched message =
  Sha256.restore ~dst:sched.scratch sched.inner;
  Sha256.feed_string sched.scratch message;
  finish sched

let rec feed_all ctx = function
  | [] -> ()
  | part :: rest ->
      Sha256.feed_string ctx part;
      feed_all ctx rest

let mac_list_sched sched parts =
  Sha256.restore ~dst:sched.scratch sched.inner;
  feed_all sched.scratch parts;
  finish sched

let mac ~key message = mac_sched (schedule ~key) message

let mac_list ~key parts = mac_list_sched (schedule ~key) parts

(* Constant-time-style comparison; timing is not observable in the
   simulator but the idiom is kept for fidelity. *)
let equal_tags expected tag =
  let n = String.length expected in
  n = String.length tag
  &&
  let diff = ref 0 in
  for i = 0 to n - 1 do
    diff :=
      !diff lor (Char.code (String.unsafe_get expected i) lxor Char.code (String.unsafe_get tag i))
  done;
  !diff = 0

let verify_sched sched ~tag message = equal_tags (mac_sched sched message) tag

let verify_list_sched sched ~tag parts = equal_tags (mac_list_sched sched parts) tag

let verify ~key ~tag message = equal_tags (mac ~key message) tag
