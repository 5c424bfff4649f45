(** Simulated host: NICs, ARP cache, UDP sockets, firewall and OS model.

    Carries the Section III-B hardening knobs (static ARP, [arp_ignore],
    default-deny firewall, minimal-server OS profile) and the compromise
    model used by the red-team experiment (remote service exploitation,
    local privilege escalation). *)

type t

type nic

type compromise = Clean | User_level | Root_level

type service = { name : string; remote_vuln : string option }

type os_profile = {
  os_name : string;
  privilege_vulns : string list;
  preinstalled : (int * service) list;
  arp_ignore : bool;
}

(** Hardened profile used by the deployed Spire components: no known
    escalation vulnerabilities, one patched service, [arp_ignore] on. *)
val centos_minimal : os_profile

(** The permissive desktop profile the components originally ran on:
    dirtycow-vulnerable kernel, several preinstalled services. *)
val ubuntu_desktop : os_profile

type udp_handler = src:Addr.endpoint -> dst_port:int -> size:int -> Packet.payload -> unit

(** Packets per second a host processes (200 000); a tenth of a second's
    worth is admitted in one burst. *)
val ingress_rate : float

val create :
  ?os:os_profile ->
  ?firewall:Firewall.t ->
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  string ->
  t

val name : t -> string

val os : t -> os_profile

val firewall : t -> Firewall.t

val counters : t -> Sim.Stats.Counter.t

(** Add a NIC with the given address. Wire it with {!plug} or
    {!plug_into_switch}. *)
val add_nic : t -> ip:Addr.Ip.t -> nic

val nic_mac : nic -> Addr.Mac.t

val nic_ip : nic -> Addr.Ip.t

val nics : t -> nic list

(** IP of the first NIC. Raises [Invalid_argument] when there is none. *)
val primary_ip : t -> Addr.Ip.t

val set_default_gateway : t -> Addr.Ip.t -> unit

(** Pin an ARP entry that dynamic (poisoned) updates cannot displace. *)
val set_static_arp : t -> ip:Addr.Ip.t -> mac:Addr.Mac.t -> unit

val arp_lookup : t -> Addr.Ip.t -> Addr.Mac.t option

(** Sniff every frame the NIC sees (attack tooling, IDS taps). *)
val set_promiscuous : nic -> (Packet.frame -> unit) option -> unit

(** Intercept frames before normal processing; return [true] to swallow.
    Used for MITM forwarding and router implementations. *)
val set_raw_handler : t -> (nic -> Packet.frame -> bool) option -> unit

val add_service : t -> port:int -> service -> unit

(** Bind a UDP socket. Raises [Invalid_argument] if the port is taken. *)
val udp_bind : t -> port:int -> udp_handler -> unit

val udp_unbind : t -> port:int -> unit

(** Send a UDP datagram. [spoof_src] forges the source IP (attack use).
    Resolution, firewalling and ARP happen as on a real host. *)
val udp_send :
  ?spoof_src:Addr.Ip.t ->
  t ->
  dst_ip:Addr.Ip.t ->
  dst_port:int ->
  src_port:int ->
  size:int ->
  Packet.payload ->
  unit

(** Emit an arbitrary frame from a NIC (layer-2 attack injection). *)
val inject_frame : t -> nic -> Packet.frame -> unit

(** Wire a NIC to an arbitrary medium: set its transmit function and get
    back the deliver callback the medium should invoke. *)
val plug : t -> nic -> transmit:(Packet.frame -> unit) -> Packet.frame -> unit

(** Wire a NIC to a switch port; returns the port id. *)
val plug_into_switch : t -> nic -> Switch.t -> Switch.port_id

val compromise_level : t -> compromise

val set_compromise : t -> compromise -> unit

(** Remote exploitation of a listening service: requires firewall
    reachability and a matching vulnerability. On success the host is
    [User_level] compromised. *)
val attempt_remote_exploit :
  t -> from_ip:Addr.Ip.t -> port:int -> exploit:string -> (unit, string) result

(** Local escalation from [User_level] to [Root_level]; succeeds only when
    the OS profile lists [exploit]. *)
val attempt_privilege_escalation : t -> exploit:string -> (unit, string) result
