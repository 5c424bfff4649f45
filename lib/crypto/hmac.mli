(** HMAC-SHA256 (RFC 2104) message authentication, used for Spines link
    authentication and as the core of the simulated signature scheme. *)

(** [mac ~key message] returns the 32-byte authentication tag. *)
val mac : key:string -> string -> string

(** [mac_list ~key parts] authenticates the concatenation of [parts]. *)
val mac_list : key:string -> string list -> string

(** [verify ~key ~tag message] checks a tag in constant time. *)
val verify : key:string -> tag:string -> string -> bool

(** Precomputed key schedule: the inner and outer padded-key blocks are
    absorbed once, so each MAC under a long-lived key rewinds one scratch
    context instead of normalizing the key and compressing two key
    blocks, and allocates only the two 32-byte digests. The scratch
    context is mutable state: a schedule belongs to one domain. *)
type schedule

val schedule : key:string -> schedule

val mac_sched : schedule -> string -> string

val mac_list_sched : schedule -> string list -> string

val verify_sched : schedule -> tag:string -> string -> bool

(** [verify_list_sched sched ~tag parts] checks a tag over the
    concatenation of [parts] without building it. *)
val verify_list_sched : schedule -> tag:string -> string list -> bool
