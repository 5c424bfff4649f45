(* Simulated host: NICs, ARP, UDP sockets, firewall, OS profile.

   This module carries most of the Section III-B hardening model:
   - per-host firewall (default-deny on hardened hosts);
   - static ARP entries that poisoning cannot displace;
   - the [arp_ignore] sysctl (a NIC answers ARP only for its own
     addresses when set, preventing cross-network address disclosure
     on multi-homed replicas);
   - an OS profile carrying privilege-escalation vulnerabilities and
     preinstalled services (minimal CentOS server vs Ubuntu desktop).

   Attack code interacts with hosts through the same primitives as
   protocol code: raw frame handlers for sniffing/MITM, [udp_send] for
   injection, and the compromise level that gates what an attacker with a
   foothold may do. *)

type compromise = Clean | User_level | Root_level

type service = { name : string; remote_vuln : string option }

type os_profile = {
  os_name : string;
  privilege_vulns : string list; (* local escalation, e.g. "dirtycow" *)
  preinstalled : (int * service) list; (* default listening services *)
  arp_ignore : bool; (* answer ARP only for the receiving NIC's own IPs *)
}

let centos_minimal =
  {
    os_name = "CentOS-minimal-server";
    privilege_vulns = [];
    preinstalled = [ (22, { name = "sshd-patched"; remote_vuln = None }) ];
    arp_ignore = true;
  }

let ubuntu_desktop =
  {
    os_name = "Ubuntu-desktop";
    privilege_vulns = [ "dirtycow" ];
    preinstalled =
      [
        (22, { name = "sshd-old"; remote_vuln = Some "ssh-exploit" });
        (111, { name = "rpcbind"; remote_vuln = None });
        (631, { name = "cups"; remote_vuln = Some "cups-exploit" });
        (5353, { name = "avahi"; remote_vuln = None });
      ];
    arp_ignore = false;
  }

type udp_handler = src:Addr.endpoint -> dst_port:int -> size:int -> Packet.payload -> unit

type arp_entry = { mac : Addr.Mac.t; static : bool }

type nic = {
  nic_mac : Addr.Mac.t;
  nic_ip : Addr.Ip.t;
  mutable transmit : Packet.frame -> unit; (* wired at plug time *)
  mutable promiscuous : (Packet.frame -> unit) option;
}

type pending = { dst_ip : Addr.Ip.t; frame_of_mac : Addr.Mac.t -> Packet.frame; expires : float }

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  host_name : string;
  os : os_profile;
  mutable nics : nic list;
  arp_table : (Addr.Ip.t, arp_entry) Hashtbl.t;
  firewall : Firewall.t;
  sockets : (int, udp_handler) Hashtbl.t;
  services : (int, service) Hashtbl.t;
  mutable default_gateway : Addr.Ip.t option;
  mutable compromise : compromise;
  mutable pending_arp : pending list;
  mutable raw_handler : (nic -> Packet.frame -> bool) option;
      (* return true to swallow the frame before normal processing *)
  counters : Sim.Stats.Counter.t;
  mutable ingress_tokens : float; (* packets; models host processing capacity *)
  mutable tokens_updated : float;
}

let arp_timeout = 1.0

(* Packets per second a host can process; a burst of a tenth of a
   second's worth is admitted at once. *)
let ingress_rate = 200_000.0

let create ?(os = ubuntu_desktop) ?(firewall = Firewall.create ()) ~engine ~trace host_name =
  let t =
    {
      engine;
      trace;
      host_name;
      os;
      nics = [];
      arp_table = Hashtbl.create 16;
      firewall;
      sockets = Hashtbl.create 16;
      services = Hashtbl.create 16;
      default_gateway = None;
      compromise = Clean;
      pending_arp = [];
      raw_handler = None;
      counters = Sim.Stats.Counter.create ();
      ingress_tokens = ingress_rate /. 10.0;
      tokens_updated = 0.0;
    }
  in
  List.iter (fun (port, svc) -> Hashtbl.replace t.services port svc) os.preinstalled;
  t

let name t = t.host_name

let os t = t.os

let firewall t = t.firewall

let counters t = t.counters

let compromise_level t = t.compromise

let set_compromise t level = t.compromise <- level

let add_nic t ~ip =
  let nic = { nic_mac = Addr.Mac.fresh (); nic_ip = ip; transmit = (fun _ -> ()); promiscuous = None } in
  t.nics <- t.nics @ [ nic ];
  nic

let nic_mac nic = nic.nic_mac

let nic_ip nic = nic.nic_ip

let nics t = t.nics

let primary_ip t =
  match t.nics with [] -> invalid_arg "Host.primary_ip: no NIC" | nic :: _ -> nic.nic_ip

let set_default_gateway t ip = t.default_gateway <- Some ip

let set_static_arp t ~ip ~mac = Hashtbl.replace t.arp_table ip { mac; static = true }

let arp_lookup t ip =
  match Hashtbl.find_opt t.arp_table ip with Some e -> Some e.mac | None -> None

let set_promiscuous nic handler = nic.promiscuous <- handler

let set_raw_handler t handler = t.raw_handler <- handler

let add_service t ~port service = Hashtbl.replace t.services port service

let udp_bind t ~port handler =
  if Hashtbl.mem t.sockets port then
    invalid_arg (Printf.sprintf "Host.udp_bind: %s port %d already bound" t.host_name port);
  Hashtbl.replace t.sockets port handler

let udp_unbind t ~port = Hashtbl.remove t.sockets port

(* --- transmit path --------------------------------------------------- *)

let nic_for_dst t dst_ip =
  let local = List.find_opt (fun nic -> Addr.Ip.same_subnet24 nic.nic_ip dst_ip) t.nics in
  match (local, t.default_gateway) with
  | Some nic, _ -> Some (nic, dst_ip) (* next hop is the destination itself *)
  | None, Some gw -> (
      match List.find_opt (fun nic -> Addr.Ip.same_subnet24 nic.nic_ip gw) t.nics with
      | Some nic -> Some (nic, gw)
      | None -> None)
  | None, None -> None

let send_arp_request t nic target_ip =
  let frame =
    {
      Packet.src_mac = nic.nic_mac;
      dst_mac = Addr.Mac.broadcast;
      l3 = Packet.Arp_request { sender_ip = nic.nic_ip; sender_mac = nic.nic_mac; target_ip };
    }
  in
  Sim.Stats.Counter.incr t.counters "arp.request_sent";
  nic.transmit frame

let transmit_ip t nic ~next_hop frame_of_mac =
  match arp_lookup t next_hop with
  | Some mac -> nic.transmit (frame_of_mac mac)
  | None ->
      let now = Sim.Engine.now t.engine in
      let already_resolving =
        List.exists (fun p -> Addr.Ip.equal p.dst_ip next_hop) t.pending_arp
      in
      t.pending_arp <-
        { dst_ip = next_hop; frame_of_mac; expires = now +. arp_timeout } :: t.pending_arp;
      if not already_resolving then send_arp_request t nic next_hop;
      (* Expire unresolved entries so the queue cannot grow without bound. *)
      ignore
        (Sim.Engine.schedule t.engine ~delay:(arp_timeout +. 0.01) (fun () ->
             let fresh_cutoff = Sim.Engine.now t.engine in
             let before = List.length t.pending_arp in
             t.pending_arp <- List.filter (fun p -> p.expires > fresh_cutoff) t.pending_arp;
             let dropped = before - List.length t.pending_arp in
             if dropped > 0 then Sim.Stats.Counter.incr ~by:dropped t.counters "arp.unresolved_drop"))

(* [spoof_src] lets attack code forge the source address (IP spoofing);
   honest senders leave it unset. *)
let udp_send ?spoof_src t ~dst_ip ~dst_port ~src_port ~size payload =
  match nic_for_dst t dst_ip with
  | None ->
      Sim.Stats.Counter.incr t.counters "tx.no_route";
      Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"host"
        "%s: no route to %s" t.host_name (Addr.Ip.to_string dst_ip)
  | Some (nic, next_hop) -> (
      let src_ip = match spoof_src with Some ip -> ip | None -> nic.nic_ip in
      let verdict =
        Firewall.evaluate t.firewall ~direction:Firewall.Egress ~remote_ip:dst_ip
          ~local_port:src_port ~remote_port:dst_port
      in
      match verdict.Firewall.action with
      | Firewall.Deny -> Sim.Stats.Counter.incr t.counters "tx.firewall_drop"
      | Firewall.Allow ->
          Sim.Stats.Counter.incr t.counters "tx.udp";
          let frame_of_mac mac =
            Packet.udp_frame ~src_mac:nic.nic_mac ~dst_mac:mac ~src_ip ~dst_ip ~src_port
              ~dst_port ~size payload
          in
          transmit_ip t nic ~next_hop frame_of_mac)

(* Raw frame injection for attack tooling (requires only network position,
   not a compromise: any device on the wire can emit arbitrary frames). *)
let inject_frame t nic frame =
  Sim.Stats.Counter.incr t.counters "tx.raw_frame";
  nic.transmit frame

(* --- receive path ----------------------------------------------------- *)

let refill_tokens t =
  let now = Sim.Engine.now t.engine in
  let elapsed = now -. t.tokens_updated in
  if elapsed > 0.0 then begin
    let cap = ingress_rate /. 10.0 in
    t.ingress_tokens <- Float.min cap (t.ingress_tokens +. (elapsed *. ingress_rate));
    t.tokens_updated <- now
  end

let owns_ip t ip = List.exists (fun nic -> Addr.Ip.equal nic.nic_ip ip) t.nics

let learn_arp t ~ip ~mac ~reason =
  match Hashtbl.find_opt t.arp_table ip with
  | Some { static = true; mac = bound } ->
      if not (Addr.Mac.equal bound mac) then begin
        Sim.Stats.Counter.incr t.counters "arp.static_protected";
        Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"host"
          "%s: ignored ARP (%s) for %s: static entry pins %s" t.host_name reason
          (Addr.Ip.to_string ip) (Addr.Mac.to_string bound)
      end
  | Some { static = false; mac = old } when not (Addr.Mac.equal old mac) ->
      Sim.Stats.Counter.incr t.counters "arp.cache_updated";
      Hashtbl.replace t.arp_table ip { mac; static = false }
  | Some _ -> ()
  | None -> Hashtbl.replace t.arp_table ip { mac; static = false }

let flush_pending t ip mac =
  let ready, waiting = List.partition (fun p -> Addr.Ip.equal p.dst_ip ip) t.pending_arp in
  t.pending_arp <- waiting;
  List.iter
    (fun p ->
      match List.find_opt (fun nic -> Addr.Ip.same_subnet24 nic.nic_ip ip) t.nics with
      | Some nic -> nic.transmit (p.frame_of_mac mac)
      | None -> ())
    ready

let handle_arp t nic = function
  | Packet.Arp_request { sender_ip; sender_mac; target_ip } ->
      (* Opportunistic learning from requests, as real stacks do; the same
         dynamic-cache weakness ARP poisoning abuses. *)
      learn_arp t ~ip:sender_ip ~mac:sender_mac ~reason:"request";
      let answer =
        if t.os.arp_ignore then Addr.Ip.equal nic.nic_ip target_ip else owns_ip t target_ip
      in
      if answer then begin
        Sim.Stats.Counter.incr t.counters "arp.reply_sent";
        nic.transmit
          {
            Packet.src_mac = nic.nic_mac;
            dst_mac = sender_mac;
            l3 =
              Packet.Arp_reply
                { sender_ip = target_ip; sender_mac = nic.nic_mac; target_ip = sender_ip;
                  target_mac = sender_mac };
          }
      end
  | Packet.Arp_reply { sender_ip; sender_mac; _ } ->
      learn_arp t ~ip:sender_ip ~mac:sender_mac ~reason:"reply";
      (match Hashtbl.find_opt t.arp_table sender_ip with
      | Some { mac; _ } -> flush_pending t sender_ip mac
      | None -> ())
  | Packet.Ipv4 _ -> assert false

let respond_to_probe t ~src ~dst_port =
  (* Scan semantics: open service answers, closed port answers unreachable
     (both only when the firewall admitted the probe). *)
  match Hashtbl.find_opt t.services dst_port with
  | Some svc ->
      udp_send t ~dst_ip:src.Addr.ip ~dst_port:src.Addr.port ~src_port:dst_port ~size:40
        (Packet.Scan_ack { service = svc.name })
  | None ->
      udp_send t ~dst_ip:src.Addr.ip ~dst_port:src.Addr.port ~src_port:dst_port ~size:40
        Packet.Icmp_port_unreachable

let deliver_udp t ~src_ip ~(udp : Packet.udp) =
  let verdict =
    Firewall.evaluate t.firewall ~direction:Firewall.Ingress ~remote_ip:src_ip
      ~local_port:udp.dst_port ~remote_port:udp.src_port
  in
  match verdict.Firewall.action with
  | Firewall.Deny -> Sim.Stats.Counter.incr t.counters "rx.firewall_drop"
  | Firewall.Allow -> (
      Sim.Stats.Counter.incr t.counters "rx.udp";
      let src = Addr.endpoint src_ip udp.src_port in
      match udp.payload with
      | Packet.Scan_probe -> respond_to_probe t ~src ~dst_port:udp.dst_port
      | _ -> (
          match Hashtbl.find_opt t.sockets udp.dst_port with
          | Some handler -> handler ~src ~dst_port:udp.dst_port ~size:udp.size udp.payload
          | None -> Sim.Stats.Counter.incr t.counters "rx.port_closed"))

let nic_receive t nic (frame : Packet.frame) =
  refill_tokens t;
  if t.ingress_tokens < 1.0 then begin
    Sim.Stats.Counter.incr t.counters "rx.overload_drop"
  end
  else begin
    t.ingress_tokens <- t.ingress_tokens -. 1.0;
    Sim.Stats.Counter.incr t.counters "rx.frames";
    (match nic.promiscuous with Some tap -> tap frame | None -> ());
    let swallowed =
      match t.raw_handler with Some handler -> handler nic frame | None -> false
    in
    if not swallowed then
      let for_us =
        Addr.Mac.is_broadcast frame.dst_mac || Addr.Mac.equal frame.dst_mac nic.nic_mac
      in
      if not for_us then Sim.Stats.Counter.incr t.counters "rx.wrong_mac"
      else
        match frame.l3 with
        | Packet.Arp_request _ | Packet.Arp_reply _ -> handle_arp t nic frame.l3
        | Packet.Ipv4 { src; dst; udp; _ } ->
            if owns_ip t dst then deliver_udp t ~src_ip:src ~udp
            else Sim.Stats.Counter.incr t.counters "rx.not_our_ip"
  end

(* Wire a NIC to a medium: the medium calls the returned deliver function;
   host transmissions go through [transmit]. *)
let plug t nic ~transmit =
  nic.transmit <- transmit;
  fun frame -> nic_receive t nic frame

let plug_into_switch t nic switch =
  let port = ref (-1) in
  let deliver frame = nic_receive t nic frame in
  port := Switch.attach switch deliver;
  nic.transmit <- (fun frame -> Switch.inject switch !port frame);
  !port

(* --- OS compromise model ---------------------------------------------- *)

(* Remote exploitation: succeeds only against a service that is reachable
   (firewall) and carries the named vulnerability. *)
let attempt_remote_exploit t ~from_ip ~port ~exploit =
  let verdict =
    Firewall.evaluate t.firewall ~direction:Firewall.Ingress ~remote_ip:from_ip
      ~local_port:port ~remote_port:40000
  in
  match verdict.Firewall.action with
  | Firewall.Deny -> Error "filtered"
  | Firewall.Allow -> (
      match Hashtbl.find_opt t.services port with
      | None -> Error "no service"
      | Some svc -> (
          match svc.remote_vuln with
          | Some v when String.equal v exploit ->
              t.compromise <- User_level;
              Ok ()
          | Some _ | None -> Error "service not vulnerable"))

(* Local privilege escalation: succeeds only when the kernel/OS carries the
   named vulnerability (e.g. dirtycow on the unpatched profile). *)
let attempt_privilege_escalation t ~exploit =
  match t.compromise with
  | Clean -> Error "no foothold"
  | Root_level -> Ok ()
  | User_level ->
      if List.exists (String.equal exploit) t.os.privilege_vulns then begin
        t.compromise <- Root_level;
        Ok ()
      end
      else Error (Printf.sprintf "%s not vulnerable to %s" t.os.os_name exploit)
