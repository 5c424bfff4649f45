(* Spire deployment builder: assembles the full Fig. 2/3 architecture
   inside the simulator.

   Per replica machine: a hardened host with two NICs (isolated Spines
   Internal network for replication, Spines External for field traffic),
   an internal and an external Spines daemon, a Prime replica and a SCADA
   master. Per PLC: a proxy machine on the external network wired to its
   PLC over a dedicated cable, plus the emulated PLC device itself. HMIs
   are external-network machines with Prime client sessions.

   [hardened] applies the Section III-B measures: minimal-server OS
   profile, default-deny host firewalls with explicit peer allows, static
   ARP entries, and static MAC-to-port switch bindings. Building with
   [hardened:false] yields the configuration the red team would have
   faced without those steps — the ablation measured in the benchmarks.

   Proxies and HMIs attach to the replicas' external daemons as remote
   Spines session clients (with heartbeat failover across daemons), as in
   the real system. *)

let prime_client = 1

let scada_client = 2

(* The Spines group every HMI session joins: a master's display push is
   one overlay message that each daemon relays to its attached HMIs. *)
let hmi_group = "hmi"

type replica_bundle = {
  r_host : Netbase.Host.t;
  r_internal_nic : Netbase.Host.nic;
  r_external_nic : Netbase.Host.nic;
  r_internal_node : Spines.Node.t;
  r_external_node : Spines.Node.t;
  r_replica : Prime.Replica.t;
  r_master : Scada.Master.t;
  r_keypair : Crypto.Signature.keypair;
  r_durable : Scada.Durable.t option; (* always [Some]: every replica has a store *)
}

type proxy_bundle = {
  p_index : int;
  p_spec : Plc.Power.plc_spec;
  p_host : Netbase.Host.t;
  p_session : Spines.Node.Session.session;
  p_proxy : Scada.Proxy.t;
  p_client : Prime.Client.t;
  p_plc_host : Netbase.Host.t;
  p_breakers : Plc.Breaker.t array;
}

type hmi_bundle = {
  h_index : int;
  h_host : Netbase.Host.t;
  h_session : Spines.Node.Session.session;
  h_hmi : Scada.Hmi.t;
  h_client : Prime.Client.t;
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  scenario : Plc.Power.scenario;
  power_model : Power.Model.t;
  power_net : Power.Net.t;
  hardened : bool;
  internal_switch : Netbase.Switch.t;
  external_switch : Netbase.Switch.t;
  replicas : replica_bundle array;
  proxies : proxy_bundle array;
  hmis : hmi_bundle array;
  endpoints : (string, int) Hashtbl.t; (* endpoint name -> external overlay node id *)
  internal_pcap : Netbase.Pcap.t;
  external_pcap : Netbase.Pcap.t;
}

let engine t = t.engine

let trace t = t.trace

let keystore t = t.keystore

let config t = t.config

let scenario t = t.scenario

let power_model t = t.power_model

let power_net t = t.power_net

let replicas t = t.replicas

let durable t i = Scada.Master.durable t.replicas.(i).r_master

(* The most advanced view any running replica has reached. A cleanly
   restarted replica re-enters at view 0 and a crashed one's view is
   frozen, so the maximum over running replicas is the deployment's
   authoritative view. *)
let max_view t =
  Array.fold_left
    (fun acc r ->
      if Prime.Replica.is_running r.r_replica then max acc (Prime.Replica.view r.r_replica)
      else acc)
    0 t.replicas

let current_leader t = Prime.Config.leader_of_view t.config (max_view t)

let proxies t = t.proxies

let hmis t = t.hmis

let external_pcap t = t.external_pcap

let internal_pcap t = t.internal_pcap

let external_switch t = t.external_switch

let internal_switch t = t.internal_switch

let group_key = "spire-deployment-group-key"

(* --- construction -------------------------------------------------------- *)

let harden_static_arp hosts_nics =
  (* Every host pins every other host's MAC: the Section III-B "static
     mapping of MAC addresses to IP addresses". *)
  List.iter
    (fun (host, _) ->
      List.iter
        (fun (_, nic) ->
          Netbase.Host.set_static_arp host ~ip:(Netbase.Host.nic_ip nic)
            ~mac:(Netbase.Host.nic_mac nic))
        hosts_nics)
    hosts_nics

let create ?(hardened = true) ?(n_hmis = 1) ?(proxy_poll_period = 0.1) ?(dnp3_plcs = [])
    ?switch_bandwidth ?probe_label ~engine ~trace ~config scenario =
  (* Shard builds label their probes ("@s03") so per-shard instances stay
     distinct in one registry; the label is scoped to construction. *)
  (match probe_label with
  | Some l -> Obs.Probe.set_label Obs.Probe.default (Some l)
  | None -> ());
  let keystore = Crypto.Signature.create_keystore () in
  (* Electrical overlay: the grid physics the breaker topology actuates.
     Purely observational from the SCADA stack's point of view — the net
     mirrors breaker positions and never commands them. *)
  let power_model = Power.Model.of_scenario scenario in
  let power_net = Power.Net.create ~flight:Obs.Flight.default ~engine power_model in
  let n = config.Prime.Config.n in
  let switch_mode = if hardened then Netbase.Switch.Static else Netbase.Switch.Learning in
  let internal_switch =
    Netbase.Switch.create ~mode:switch_mode ?bandwidth:switch_bandwidth ~engine ~trace
      "spines-internal"
  in
  let external_switch =
    Netbase.Switch.create ~mode:switch_mode ?bandwidth:switch_bandwidth ~engine ~trace
      "spines-external"
  in
  let internal_pcap = Netbase.Pcap.create () in
  let external_pcap = Netbase.Pcap.create () in
  Netbase.Switch.add_tap internal_switch (fun frame ->
      Netbase.Pcap.capture internal_pcap ~time:(Sim.Engine.now engine) frame);
  Netbase.Switch.add_tap external_switch (fun frame ->
      Netbase.Pcap.capture external_pcap ~time:(Sim.Engine.now engine) frame);
  let os = if hardened then Netbase.Host.centos_minimal else Netbase.Host.ubuntu_desktop in
  let make_firewall () =
    if hardened then Netbase.Firewall.locked_down () else Netbase.Firewall.create ()
  in
  let plc_specs = Array.of_list scenario.Plc.Power.plcs in
  let n_proxies = Array.length plc_specs in
  let uses_dnp3 spec = List.mem spec.Plc.Power.plc_name dnp3_plcs in
  (* External overlay daemons run on the replica machines only; proxies
     and HMIs attach as remote session clients. *)
  let internal_topology = Spines.Topology.full_mesh (List.init n (fun i -> i)) in
  let external_topology = Spines.Topology.full_mesh (List.init n (fun i -> i)) in
  let internal_config node_key =
    Spines.Node.default_config ~port:Addressing.spines_internal_port ~group_key:node_key
      internal_topology
  in
  let external_config node_key =
    Spines.Node.default_config ~port:Addressing.spines_external_port
      ~session_port:Addressing.spines_session_port ~group_key:node_key external_topology
  in
  let endpoints = Hashtbl.create 16 in
  (* --- replica machines --- *)
  let replica_keypairs =
    Array.init n (fun i -> Crypto.Signature.generate keystore (Prime.Msg.replica_identity i))
  in
  let replica_hosts =
    Array.init n (fun i ->
        let host =
          Netbase.Host.create ~os ~firewall:(make_firewall ()) ~engine ~trace
            (Printf.sprintf "replica-%d" i)
        in
        let internal_nic = Netbase.Host.add_nic host ~ip:(Addressing.replica_internal i) in
        let external_nic = Netbase.Host.add_nic host ~ip:(Addressing.replica_external i) in
        let int_port = Netbase.Host.plug_into_switch host internal_nic internal_switch in
        let ext_port = Netbase.Host.plug_into_switch host external_nic external_switch in
        if hardened then begin
          Netbase.Switch.bind_mac internal_switch (Netbase.Host.nic_mac internal_nic) int_port;
          Netbase.Switch.bind_mac external_switch (Netbase.Host.nic_mac external_nic) ext_port
        end;
        (host, internal_nic, external_nic))
  in
  let internal_nodes =
    Array.init n (fun i ->
        let host, _, _ = replica_hosts.(i) in
        Spines.Node.create ~engine ~trace ~host ~id:i (internal_config group_key))
  in
  (* --- proxy + PLC machines --- *)
  let proxy_hosts =
    Array.init n_proxies (fun k ->
        let spec = plc_specs.(k) in
        let host =
          Netbase.Host.create ~os ~firewall:(make_firewall ()) ~engine ~trace
            ("proxy-" ^ spec.Plc.Power.plc_name)
        in
        let ext_nic = Netbase.Host.add_nic host ~ip:(Addressing.proxy_external k) in
        let port = Netbase.Host.plug_into_switch host ext_nic external_switch in
        if hardened then
          Netbase.Switch.bind_mac external_switch (Netbase.Host.nic_mac ext_nic) port;
        let cable_nic = Netbase.Host.add_nic host ~ip:(Addressing.cable_proxy k) in
        let plc_host =
          Netbase.Host.create ~os:Netbase.Host.centos_minimal
            ~firewall:(Netbase.Firewall.create ()) ~engine ~trace
            ("plc-" ^ spec.Plc.Power.plc_name)
        in
        let plc_nic = Netbase.Host.add_nic plc_host ~ip:(Addressing.cable_plc k) in
        Netbase.Cable.connect ~engine ~latency:2e-5 host cable_nic plc_host plc_nic;
        (host, ext_nic, plc_host))
  in
  let hmi_hosts =
    Array.init n_hmis (fun j ->
        let host =
          Netbase.Host.create ~os ~firewall:(make_firewall ()) ~engine ~trace
            (Printf.sprintf "hmi-%d" j)
        in
        let nic = Netbase.Host.add_nic host ~ip:(Addressing.hmi_external j) in
        let port = Netbase.Host.plug_into_switch host nic external_switch in
        if hardened then Netbase.Switch.bind_mac external_switch (Netbase.Host.nic_mac nic) port;
        (host, nic))
  in
  let external_nodes =
    Array.init n (fun id ->
        let host, _, _ = replica_hosts.(id) in
        Spines.Node.create ~engine ~trace ~host ~id (external_config group_key))
  in
  (* Peer addresses. *)
  Array.iteri
    (fun i node ->
      for j = 0 to n - 1 do
        if i <> j then Spines.Node.set_peer_address node j (Addressing.replica_internal j)
      done)
    internal_nodes;
  Array.iteri
    (fun i node ->
      for j = 0 to n - 1 do
        if i <> j then Spines.Node.set_peer_address node j (Addressing.replica_external j)
      done)
    external_nodes;
  (* Firewall allows for the overlay peers and the proxy cable. *)
  if hardened then begin
    for i = 0 to n - 1 do
      let host, _, _ = replica_hosts.(i) in
      let fw = Netbase.Host.firewall host in
      for j = 0 to n - 1 do
        if i <> j then begin
          Netbase.Firewall.allow_peer fw ~remote_ip:(Addressing.replica_internal j)
            ~local_port:Addressing.spines_internal_port ~description:"spines internal peer";
          Netbase.Firewall.allow_peer fw ~remote_ip:(Addressing.replica_external j)
            ~local_port:Addressing.spines_external_port ~description:"spines external peer"
        end
      done;
      (* Session clients (proxies, HMIs): their IP on the session port. *)
      let allow_session_client ip =
        Netbase.Firewall.allow_peer fw ~remote_ip:ip
          ~local_port:Addressing.spines_session_port ~description:"spines session client";
        Netbase.Firewall.add fw
          (Netbase.Firewall.rule ~remote_ip:ip ~remote_port:Addressing.session_client_port
             ~description:"session deliveries" Netbase.Firewall.Egress)
      in
      for k = 0 to n_proxies - 1 do
        allow_session_client (Addressing.proxy_external k)
      done;
      for j = 0 to n_hmis - 1 do
        allow_session_client (Addressing.hmi_external j)
      done
    done;
    Array.iteri
      (fun k (host, _, plc_host) ->
        let fw = Netbase.Host.firewall host in
        for j = 0 to n - 1 do
          Netbase.Firewall.allow_peer fw ~remote_ip:(Addressing.replica_external j)
            ~local_port:Addressing.session_client_port ~description:"spines session daemon";
          Netbase.Firewall.add fw
            (Netbase.Firewall.rule ~remote_ip:(Addressing.replica_external j)
               ~remote_port:Addressing.spines_session_port ~description:"session uplink"
               Netbase.Firewall.Egress)
        done;
        (* The site's own field protocol over the dedicated cable:
           asymmetric client/server ports, and nothing else. *)
        let device_port, local_port, protocol =
          if uses_dnp3 plc_specs.(k) then (Plc.Dnp3.tcp_port, Scada.Proxy.dnp3_local_port, "dnp3")
          else (Plc.Modbus.tcp_port, Scada.Proxy.modbus_local_port, "modbus")
        in
        Netbase.Firewall.add fw
          (Netbase.Firewall.rule ~remote_ip:(Addressing.cable_plc k) ~remote_port:device_port
             ~description:(protocol ^ " to field device") Netbase.Firewall.Egress);
        Netbase.Firewall.add fw
          (Netbase.Firewall.rule ~remote_ip:(Addressing.cable_plc k) ~local_port
             ~description:(protocol ^ " replies") Netbase.Firewall.Ingress);
        (* The PLC itself only ever talks to its proxy. *)
        let plc_fw = Netbase.Host.firewall plc_host in
        Netbase.Firewall.set_default plc_fw Netbase.Firewall.Ingress Netbase.Firewall.Deny;
        Netbase.Firewall.add plc_fw
          (Netbase.Firewall.rule ~remote_ip:(Addressing.cable_proxy k)
             ~description:"proxy only" Netbase.Firewall.Ingress))
      proxy_hosts;
    Array.iter
      (fun (host, _) ->
        let fw = Netbase.Host.firewall host in
        for j = 0 to n - 1 do
          Netbase.Firewall.allow_peer fw ~remote_ip:(Addressing.replica_external j)
            ~local_port:Addressing.session_client_port ~description:"spines session daemon";
          Netbase.Firewall.add fw
            (Netbase.Firewall.rule ~remote_ip:(Addressing.replica_external j)
               ~remote_port:Addressing.spines_session_port ~description:"session uplink"
               Netbase.Firewall.Egress)
        done)
      hmi_hosts;
    (* Static ARP across each network. *)
    let internal_members =
      Array.to_list (Array.map (fun (h, nic, _) -> (h, nic)) replica_hosts)
    in
    harden_static_arp internal_members;
    let external_members =
      Array.to_list (Array.map (fun (h, _, nic) -> (h, nic)) replica_hosts)
      @ Array.to_list (Array.map (fun (h, nic, _) -> (h, nic)) proxy_hosts)
      @ Array.to_list (Array.map (fun (h, nic) -> (h, nic)) hmi_hosts)
    in
    harden_static_arp external_members
  end;
  (* --- start the overlay --- *)
  Array.iter Spines.Node.start internal_nodes;
  Array.iter Spines.Node.start external_nodes;
  (* --- endpoint registry (session names reachable via the overlay) --- *)
  Array.iteri
    (fun k spec -> Hashtbl.replace endpoints ("proxy-" ^ spec.Plc.Power.plc_name) k)
    plc_specs;
  for j = 0 to n_hmis - 1 do
    Hashtbl.replace endpoints (Printf.sprintf "hmi-%d" j) j
  done;
  (* --- Prime replicas and SCADA masters --- *)
  let replica_bundles =
    Array.init n (fun i ->
        let host, internal_nic, external_nic = replica_hosts.(i) in
        let internal_node = internal_nodes.(i) in
        let external_node = external_nodes.(i) in
        let transport =
          {
            Prime.Replica.send =
              (fun ~dst msg ->
                Spines.Node.send internal_node ~client:prime_client ~size:(Prime.Msg.size msg)
                  (Spines.Node.To_client { node = dst; client = prime_client })
                  (Prime.Msg.Prime_msg msg));
            broadcast =
              (fun msg ->
                Spines.Node.send internal_node ~client:prime_client ~size:(Prime.Msg.size msg)
                  (Spines.Node.To_group "prime") (Prime.Msg.Prime_msg msg));
            reply_to_client =
              (fun ~client msg ->
                if Hashtbl.mem endpoints client then
                  Spines.Node.send external_node ~client:prime_client ~size:(Prime.Msg.size msg)
                    (Spines.Node.To_session client) (Prime.Msg.Prime_msg msg));
          }
        in
        let replica =
          Prime.Replica.create ~engine ~trace ~keystore ~keypair:replica_keypairs.(i)
            ~transport ~id:i config
        in
        let net =
          {
            Scada.Master.broadcast_masters =
              (fun payload ~size ->
                Spines.Node.send internal_node ~client:scada_client ~size
                  (Spines.Node.To_group "masters") payload);
            send_endpoint =
              (fun ~endpoint payload ~size ->
                if Hashtbl.mem endpoints endpoint then
                  Spines.Node.send external_node ~client:scada_client ~size
                    (Spines.Node.To_session endpoint) payload);
            push_hmis =
              (fun payload ~size ->
                if n_hmis > 0 then
                  Spines.Node.send external_node ~client:scada_client ~size
                    (Spines.Node.To_group hmi_group) payload);
          }
        in
        (* Simulated durable device per replica machine: its RNG is a
           split stream so disk fault draws never perturb the rest of the
           simulation. *)
        let media =
          Store.Media.create ~rng:(Sim.Engine.split_rng engine) (Printf.sprintf "disk-%d" i)
        in
        let master =
          Scada.Master.create ~engine ~trace ~keystore ~keypair:replica_keypairs.(i) ~config
            ~replica ~scenario ~media ~net
        in
        (* Internal overlay clients: Prime stream and master-to-master. *)
        Spines.Node.register_client internal_node ~client:prime_client ~groups:[ "prime" ]
          (fun ~src:_ ~size:_ payload ->
            match payload with
            | Prime.Msg.Prime_msg msg -> Prime.Replica.handle_message replica msg
            | _ -> ());
        Spines.Node.register_client internal_node ~client:scada_client ~groups:[ "masters" ]
          (fun ~src:_ ~size:_ payload -> Scada.Master.handle_payload master payload);
        (* External overlay client: field traffic in (client updates). *)
        Spines.Node.register_client external_node ~client:prime_client
          (fun ~src:_ ~size:_ payload ->
            match payload with
            | Prime.Msg.Prime_msg msg -> Prime.Replica.handle_message replica msg
            | _ -> ());
        Spines.Node.register_client external_node ~client:scada_client
          (fun ~src:_ ~size:_ payload -> Scada.Master.handle_payload master payload);
        Prime.Replica.start replica;
        {
          r_host = host;
          r_internal_nic = internal_nic;
          r_external_nic = external_nic;
          r_internal_node = internal_node;
          r_external_node = external_node;
          r_replica = replica;
          r_master = master;
          r_keypair = replica_keypairs.(i);
          r_durable = Some (Scada.Master.durable master);
        })
  in
  (* --- proxies, PLCs, breakers --- *)
  let daemons_rotated start =
    List.init n (fun j -> let i = (start + j) mod n in (i, Addressing.replica_external i))
  in
  let proxy_bundles =
    Array.init n_proxies (fun k ->
        let spec = plc_specs.(k) in
        let host, _, plc_host = proxy_hosts.(k) in
        let proxy_name = "proxy-" ^ spec.Plc.Power.plc_name in
        let keypair = Crypto.Signature.generate keystore proxy_name in
        let session =
          Spines.Node.Session.create ~local_port:Addressing.session_client_port ~engine ~trace
            ~host ~key:group_key ~daemons:(daemons_rotated k)
            ~daemon_session_port:Addressing.spines_session_port ~name:proxy_name ()
        in
        let send_to_replica ~dst msg =
          Spines.Node.Session.send session ~size:(Prime.Msg.size msg)
            (Spines.Node.To_client { node = dst; client = prime_client })
            (Prime.Msg.Prime_msg msg)
        in
        let client = Prime.Client.create ~engine ~keystore ~keypair ~send_to_replica config in
        Prime.Client.enable_retransmit client ~period:2.0;
        let make_breakers wire =
          Array.of_list
            (List.mapi
               (fun index breaker_name ->
                 let b = Plc.Breaker.create ~engine breaker_name in
                 wire index b;
                 Power.Net.bind_breaker power_net b;
                 b)
               spec.Plc.Power.breaker_names)
        in
        let n_points = List.length spec.Plc.Power.breaker_names in
        let plc = spec.Plc.Power.plc_name in
        let protocol, breakers =
          if uses_dnp3 spec then begin
            let rtu = Plc.Rtu.create ~engine ~trace ~name:plc ~n_points () in
            let breakers = make_breakers (fun index b -> Plc.Rtu.wire_breaker rtu ~index b) in
            (* The RTU's analog image samples the site's measurement
               points (line flows, injections, frequency) from the
               electrical overlay at poll time. *)
            let analog_names = Power.Net.analog_names_for power_net ~plc in
            Plc.Rtu.set_analog_source rtu (fun () ->
                List.map snd (Power.Net.analogs_for power_net ~plc));
            Plc.Rtu.serve_on rtu plc_host;
            (Scada.Proxy.Dnp3 { analog_names }, breakers)
          end
          else begin
            let device = Plc.Device.create ~engine ~trace ~name:plc ~n_coils:n_points in
            let breakers = make_breakers (fun coil b -> Plc.Device.wire_breaker device ~coil b) in
            Plc.Device.serve_on device plc_host;
            (Scada.Proxy.Modbus, breakers)
          end
        in
        let proxy =
          Scada.Proxy.create ~engine ~trace ~keystore ~config ~host
            ~device_ip:(Addressing.cable_plc k) ~breaker_names:spec.Plc.Power.breaker_names
            ~client protocol proxy_name
        in
        Scada.Proxy.start proxy ~poll_period:proxy_poll_period;
        Spines.Node.Session.set_handler session (fun ~size:_ payload ->
            Scada.Proxy.handle_payload proxy payload);
        Spines.Node.Session.start session;
        {
          p_index = k;
          p_spec = spec;
          p_host = host;
          p_session = session;
          p_proxy = proxy;
          p_client = client;
          p_plc_host = plc_host;
          p_breakers = breakers;
        })
  in
  (* --- HMIs --- *)
  let hmi_bundles =
    Array.init n_hmis (fun j ->
        let host, _ = hmi_hosts.(j) in
        let hmi_name = Printf.sprintf "hmi-%d" j in
        let keypair = Crypto.Signature.generate keystore hmi_name in
        let session =
          Spines.Node.Session.create ~local_port:Addressing.session_client_port ~engine ~trace
            ~host ~key:group_key ~daemons:(daemons_rotated (j + 1)) ~groups:[ hmi_group ]
            ~daemon_session_port:Addressing.spines_session_port ~name:hmi_name ()
        in
        let send_to_replica ~dst msg =
          Spines.Node.Session.send session ~size:(Prime.Msg.size msg)
            (Spines.Node.To_client { node = dst; client = prime_client })
            (Prime.Msg.Prime_msg msg)
        in
        let client = Prime.Client.create ~engine ~keystore ~keypair ~send_to_replica config in
        Prime.Client.enable_retransmit client ~period:2.0;
        let hmi =
          Scada.Hmi.create ~engine ~trace ~keystore ~config ~scenario ~client hmi_name
        in
        Spines.Node.Session.set_handler session (fun ~size:_ payload ->
            Scada.Hmi.handle_payload hmi payload);
        Spines.Node.Session.start session;
        { h_index = j; h_host = host; h_session = session; h_hmi = hmi; h_client = client })
  in
  Power.Net.register_probe power_net Obs.Probe.default;
  (* Probes register at construction time only, so the label's scope
     ends here; restarts reuse the instances built above. *)
  (match probe_label with
  | Some _ -> Obs.Probe.set_label Obs.Probe.default None
  | None -> ());
  {
    engine;
    trace;
    keystore;
    config;
    scenario;
    power_model;
    power_net;
    hardened;
    internal_switch;
    external_switch;
    replicas = replica_bundles;
    proxies = proxy_bundles;
    hmis = hmi_bundles;
    endpoints;
    internal_pcap;
    external_pcap;
  }

(* --- operations ------------------------------------------------------------ *)

let find_breaker t name =
  let found = ref None in
  Array.iter
    (fun p ->
      Array.iter
        (fun b -> if String.equal (Plc.Breaker.name b) name then found := Some (p, b))
        p.p_breakers)
    t.proxies;
  !found

(* Proactive recovery of one replica: stop everything on the machine,
   wipe protocol and application state, come back with a fresh variant
   (the variant itself is tracked by the Diversity scheduler). *)
let take_down_replica t i =
  let r = t.replicas.(i) in
  Prime.Replica.shutdown r.r_replica;
  (* Power loss on the machine: the device drops its unsynced tails. *)
  Scada.Durable.on_crash (Scada.Master.durable r.r_master);
  Spines.Node.stop r.r_internal_node;
  Spines.Node.stop r.r_external_node

let bring_up_replica_clean t i =
  let r = t.replicas.(i) in
  Spines.Node.start r.r_internal_node;
  Spines.Node.start r.r_external_node;
  (* A clean (diverse-variant) reinstall wipes the machine's disk too:
     the replica rejoins with nothing and relies on state transfer. *)
  Scada.Durable.wipe_disk (Scada.Master.durable r.r_master);
  Scada.State.reset (Scada.Master.state r.r_master);
  Prime.Replica.restart_clean r.r_replica;
  Netbase.Host.set_compromise r.r_host Netbase.Host.Clean

(* Restart that keeps the machine's disk: replay the durable state and
   rejoin from it, leaning on Prime catchup only for the suffix past the
   last durable execution boundary. When the device holds nothing
   installable the replica rejoins as a clean one does, through the
   f + 1-voted state transfer. *)
let bring_up_replica_intact t i =
  let r = t.replicas.(i) in
  Spines.Node.start r.r_internal_node;
  Spines.Node.start r.r_external_node;
  Scada.State.reset (Scada.Master.state r.r_master);
  Prime.Replica.restart_clean r.r_replica;
  ignore (Scada.Durable.local_recover (Scada.Master.durable r.r_master) : bool);
  Netbase.Host.set_compromise r.r_host Netbase.Host.Clean

(* Ground-truth rebuild after an assumption breach (Section III-A): every
   master resets; replication restarts from scratch; the proxies' polling
   repopulates state from the field devices. *)
let ground_truth_reset t =
  Array.iter
    (fun r ->
      Prime.Replica.shutdown r.r_replica;
      (* Post-breach, pre-breach durable state is untrusted by design. *)
      Scada.Durable.wipe_disk (Scada.Master.durable r.r_master);
      Scada.Master.ground_truth_reset r.r_master)
    t.replicas;
  Array.iter
    (fun r ->
      Prime.Replica.restart_clean r.r_replica)
    t.replicas;
  (* Force proxies to re-report everything on their next poll. *)
  Array.iter (fun p -> Scada.Proxy.reset_reporting p.p_proxy) t.proxies
