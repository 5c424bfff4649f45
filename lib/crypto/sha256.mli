(** SHA-256 (FIPS 180-4), implemented from scratch because no crypto
    package is available in this environment. Verified against the FIPS
    test vectors in the test suite. *)

(** A digest is 32 raw bytes. *)
type digest = string

type ctx

(** Fresh streaming context. *)
val init : unit -> ctx

(** Absorb input incrementally. *)
val feed_string : ctx -> string -> unit

(** Absorb a byte buffer incrementally (no string conversion). The buffer
    is not retained; mutating it afterwards is safe. *)
val feed_bytes : ctx -> Bytes.t -> unit

(** [restore ~dst src] rewinds [dst] in place to the point [src] has
    reached, whatever [dst] held before; later feeding or finalizing one
    does not affect the other. Allocates nothing. Used to replay
    precomputed key schedules. *)
val restore : dst:ctx -> ctx -> unit

(** Finish and return the digest. The context must not be fed again
    until a {!restore} rewinds it. *)
val finalize : ctx -> digest

(** One-shot hash. *)
val digest : string -> digest

(** Hash the concatenation of the parts without building it. *)
val digest_list : string list -> digest

(** Lowercase hex rendering of a digest. *)
val to_hex : digest -> string

(** [hex_of_string s] is [to_hex (digest s)]. *)
val hex_of_string : string -> string
