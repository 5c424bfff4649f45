(** Red-team actor: machines attached to networks, an action log, and
    passive ARP sniffing on every attacker NIC. *)

type outcome = Succeeded of string | Failed of string

val outcome_ok : outcome -> bool

val outcome_detail : outcome -> string

type position = {
  pos_name : string;
  pos_host : Netbase.Host.t;
  pos_nic : Netbase.Host.nic;
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  mutable positions : position list;
  mutable log : (float * string * outcome) list;
  counters : Sim.Stats.Counter.t;
  learned_macs : (Netbase.Addr.Ip.t, Netbase.Addr.Mac.t) Hashtbl.t;
}

val create : engine:Sim.Engine.t -> trace:Sim.Trace.t -> t

(** A MAC learned by passive sniffing, if any. *)
val known_mac : t -> Netbase.Addr.Ip.t -> Netbase.Addr.Mac.t option

val counters : t -> Sim.Stats.Counter.t

val log : t -> (float * string * outcome) list

val record : t -> action:string -> outcome -> unit

(** Attach an attacker machine to a switch, its MAC registered in the
    switch's static table — being handed a provisioned port, per the
    rules of engagement. *)
val attach : t -> name:string -> ip:Netbase.Addr.Ip.t -> Netbase.Switch.t -> position
