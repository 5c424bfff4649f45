(** Per-host packet filter modelling the paper's Section III-B hardening
    ("block all incoming and outgoing traffic other than the specific IP
    address and port combinations used by our protocols"). *)

type direction = Ingress | Egress

type action = Allow | Deny

type rule

type t

(** A permissive firewall (typical desktop default). *)
val create : ?default_ingress:action -> ?default_egress:action -> unit -> t

(** The paper's profile: default-deny in both directions. *)
val locked_down : unit -> t

(** Build a rule. [None] fields match anything. *)
val rule :
  ?action:action ->
  ?remote_ip:Addr.Ip.t ->
  ?local_port:int ->
  ?remote_port:int ->
  description:string ->
  direction ->
  rule

(** Append a rule (first match wins, in insertion order). *)
val add : t -> rule -> unit

(** Allow bidirectional traffic with [remote_ip] on [local_port] — the
    "specific IP address and port combination" idiom. *)
val allow_peer : t -> remote_ip:Addr.Ip.t -> local_port:int -> description:string -> unit

val set_default : t -> direction -> action -> unit

type verdict = { action : action; matched : string option }

(** Evaluate a UDP packet against the rule set. *)
val evaluate :
  t -> direction:direction -> remote_ip:Addr.Ip.t -> local_port:int -> remote_port:int -> verdict

val rules : t -> rule list
