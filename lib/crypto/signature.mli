(** Simulated digital signatures backed by a keystore standing in for a
    PKI (see DESIGN.md substitution table).

    Unforgeability is structural: [keypair] values are capabilities, and
    [sign] is the only constructor of verifying signatures. Attack code
    that captures a replica's keypair (the paper's root-access excursion)
    can sign as that replica; attack code without it cannot. *)

type identity = string

(** Private signing capability. The secret is never exposed. *)
type keypair

(** A signature: signer identity plus authentication tag. *)
type t

(** The PKI: maps identities to verification material. *)
type keystore

val create_keystore : unit -> keystore

(** [generate ks id] creates and registers a keypair for [id]. Raises
    [Invalid_argument] if [id] is already registered. *)
val generate : keystore -> identity -> keypair

val identity : keypair -> identity

val signer : t -> identity

(** The authentication tag (public wire material; exposed so verified-
    signature caches can key on it). *)
val tag : t -> string

(** Rehydrate a signature from persisted wire material ([signer] plus
    {!tag}). Safe against forgery: verification recomputes the HMAC, so a
    rehydrated tag only verifies if {!sign} produced it. *)
val of_tag : signer:identity -> string -> t

(** [sign kp message] signs the exact byte string [message]. *)
val sign : keypair -> string -> t

(** [verify ks ~signer message t] checks that [t] is [signer]'s signature
    over [message]. *)
val verify : keystore -> signer:identity -> string -> t -> bool

(** A syntactically well-formed but invalid signature, for modelling
    forgery attempts by adversaries who lack the key. *)
val forge : signer:identity -> string -> t

(** Wire size of a signature, for traffic modelling. *)
val size_bytes : int
