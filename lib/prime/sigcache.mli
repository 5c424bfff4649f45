(** Bounded verified-signature cache (FIFO eviction).

    Keys cover (signer, tag, signed bytes) and entries are inserted only
    after a successful HMAC verification, so a forged tag can neither hit
    nor populate the cache. Capacity 0 disables caching (every check
    verifies afresh). *)

type t

(** Raises [Invalid_argument] on negative capacity. *)
val create : capacity:int -> t

val size : t -> int

val clear : t -> unit

(** [check t ks ~signer message s] agrees with
    [Crypto.Signature.verify ks ~signer message s] on every input.
    [`Hit]: the triple was verified earlier. [`Valid]: fresh verification
    succeeded and was cached. [`Invalid]: verification failed (nothing
    cached). *)
val check :
  t ->
  Crypto.Signature.keystore ->
  signer:Crypto.Signature.identity ->
  string ->
  Crypto.Signature.t ->
  [ `Hit | `Valid | `Invalid ]
