(** False data injection attack: a compromised RTU proxy replays a
    stale-consistent analog snapshot while the attacker physically
    changes the grid. The binary breaker path stays honest — every
    breaker-state invariant remains silent; only chi-square bad-data
    detection over the telemetry ensemble can notice. *)

type t

(** Compromise [site]'s proxy: from its next poll on, the analog image
    submitted to the replicated system is frozen at the first
    post-compromise snapshot. [Error] for unknown or Modbus sites. *)
val launch : Spire.Deployment.t -> site:string -> (t, string) result

(** Physically force a breaker open (insider action, bypassing the
    supervisory path). The RTU reports the position change honestly. *)
val force_open : t -> Spire.Deployment.t -> breaker:string -> (unit, string) result

(** Drop the foothold: the proxy polls honestly again. *)
val release : t -> unit

val site : t -> string

(** Has the replayed snapshot been captured yet (first poll ran)? *)
val frozen : t -> bool

(** Breakers forced so far with times, oldest first. *)
val forced : t -> (string * float) list
