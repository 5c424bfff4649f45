(* Red-team actor.

   An attacker owns machines attached to networks (its [position]s), a
   scratch log of attempted actions with outcomes, and — once it
   compromises hosts — footholds it can escalate. All attack actions act
   through the same network primitives as legitimate code: raw frame
   injection, UDP sockets, promiscuous sniffing. *)

type outcome = Succeeded of string | Failed of string

let outcome_ok = function Succeeded _ -> true | Failed _ -> false

let outcome_detail = function Succeeded d | Failed d -> d

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

let create ~engine ~trace =
  {
    engine;
    trace;
    positions = [];
    log = [];
    counters = Sim.Stats.Counter.create ();
    learned_macs = Hashtbl.create 32;
  }

(* Passive sniffing installed on every attacker NIC: learn MAC addresses
   from any ARP traffic seen on the wire. *)
let sniff_arp t frame =
  match frame.Netbase.Packet.l3 with
  | Netbase.Packet.Arp_reply { sender_ip; sender_mac; _ }
  | Netbase.Packet.Arp_request { sender_ip; sender_mac; _ } ->
      Hashtbl.replace t.learned_macs sender_ip sender_mac
  | Netbase.Packet.Ipv4 _ -> ()

let known_mac t ip = Hashtbl.find_opt t.learned_macs ip

let counters t = t.counters

let log t = List.rev t.log

let record t ~action outcome =
  t.log <- (Sim.Engine.now t.engine, action, outcome) :: t.log;
  Sim.Stats.Counter.incr t.counters
    (if outcome_ok outcome then "action.succeeded" else "action.failed");
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"attack" "%s: %s — %s"
    action
    (match outcome with Succeeded _ -> "SUCCESS" | Failed _ -> "failed")
    (outcome_detail outcome)

(* Attach an attacker machine to a switch, its MAC registered in the
   switch's static table (models being handed a provisioned port, as in
   the red-team rules of engagement). *)
let attach t ~name ~ip switch =
  let host = Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine:t.engine ~trace:t.trace name in
  let nic = Netbase.Host.add_nic host ~ip in
  let port = Netbase.Host.plug_into_switch host nic switch in
  Netbase.Switch.bind_mac switch (Netbase.Host.nic_mac nic) port;
  Netbase.Host.set_promiscuous nic (Some (fun frame -> sniff_arp t frame));
  let position = { pos_name = name; pos_host = host; pos_nic = nic } in
  t.positions <- position :: t.positions;
  position
