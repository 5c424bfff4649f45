(** MAC and IPv4-style addressing for the simulated network. *)

module Mac : sig
  type t

  val broadcast : t

  (** A globally fresh locally-administered unicast MAC. *)
  val fresh : unit -> t

  val is_broadcast : t -> bool

  val equal : t -> t -> bool

  val compare : t -> t -> int

  (** The 48-bit address as an int, and back: for compact stores. *)
  val to_int : t -> int

  val of_int : int -> t

  val to_string : t -> string

  val pp : Format.formatter -> t -> unit
end

module Ip : sig
  type t

  (** [v a b c d] builds the address [a.b.c.d]. Raises [Invalid_argument]
      if any octet is outside 0-255. *)
  val v : int -> int -> int -> int -> t

  val broadcast : t

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val hash : t -> int

  (** The 32-bit address as an int, and back: for compact stores. *)
  val to_int : t -> int

  val of_int : int -> t

  val to_string : t -> string

  (** Raises [Invalid_argument] on malformed input. *)
  val of_string : string -> t

  (** True when both addresses share the same /24 prefix. *)
  val same_subnet24 : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

type endpoint = { ip : Ip.t; port : int }

val endpoint : Ip.t -> int -> endpoint

val pp_endpoint : Format.formatter -> endpoint -> unit
