(* The red-team experiment testbed (Fig. 3).

   One enterprise network (historian "PI server" plus a business
   workstation) connected through the corporate firewall/router to two
   parallel operations networks: the commercial SCADA system and Spire.
   As in the experiment, the corporate firewall's ACL admits the
   enterprise-to-operations flows that day-to-day operation needs — and,
   as the red team discovered on the commercial side, that is enough of a
   path to reach the PLC's maintenance service. *)

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  enterprise_switch : Netbase.Switch.t;
  enterprise_pcap : Netbase.Pcap.t;
  historian_host : Netbase.Host.t;
  workstation : Netbase.Host.t;
  router : Netbase.Router.t;
  commercial : Spire.Commercial.t;
  spire : Spire.Deployment.t;
  historian : Scada.Historian.t;
}

let create ?(scenario = Plc.Power.red_team) ?(spire_hardened = true) ~engine ~trace () =
  (* Enterprise network. *)
  let enterprise_switch = Netbase.Switch.create ~engine ~trace "enterprise" in
  let enterprise_pcap = Netbase.Pcap.create () in
  Netbase.Switch.add_tap enterprise_switch (fun frame ->
      Netbase.Pcap.capture enterprise_pcap ~time:(Sim.Engine.now engine) frame);
  let historian_host =
    Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine ~trace "pi-server"
  in
  let h_nic = Netbase.Host.add_nic historian_host ~ip:Spire.Addressing.historian_ip in
  let (_ : int) = Netbase.Host.plug_into_switch historian_host h_nic enterprise_switch in
  Netbase.Host.set_default_gateway historian_host Spire.Addressing.enterprise_gateway;
  Netbase.Host.add_service historian_host ~port:5450
    { Netbase.Host.name = "pi-historian"; remote_vuln = Some "historian-exploit" };
  let workstation =
    Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine ~trace "workstation"
  in
  let w_nic = Netbase.Host.add_nic workstation ~ip:Spire.Addressing.workstation_ip in
  let (_ : int) = Netbase.Host.plug_into_switch workstation w_nic enterprise_switch in
  Netbase.Host.set_default_gateway workstation Spire.Addressing.enterprise_gateway;
  (* The two parallel operations networks. *)
  let commercial = Spire.Commercial.create ~engine ~trace scenario in
  let spire =
    Spire.Deployment.create ~hardened:spire_hardened ~engine ~trace
      ~config:(Prime.Config.red_team ()) scenario
  in
  (* Corporate firewall: enterprise uplink plus one interface on each
     operations network. The ACL mirrors the permissive reality the red
     team found: enterprise hosts may reach the operations subnets (the
     historian collects from the SCADA systems), but nothing may cross
     between the two operations networks. *)
  let router = Netbase.Router.create ~engine ~trace "corp-firewall" in
  let (_ : Netbase.Host.nic) =
    Netbase.Router.add_interface router ~ip:Spire.Addressing.enterprise_gateway
      enterprise_switch
  in
  let (_ : Netbase.Host.nic) =
    Netbase.Router.add_interface router ~ip:Spire.Addressing.commercial_gateway
      (Spire.Commercial.ops_switch commercial)
  in
  let (_ : Netbase.Host.nic) =
    Netbase.Router.add_interface router ~ip:Spire.Addressing.spire_ops_gateway
      (Spire.Deployment.external_switch spire)
  in
  Netbase.Router.permit router ~src_subnet:Spire.Addressing.enterprise_subnet
    ~dst_subnet:Spire.Addressing.commercial_subnet ~description:"enterprise to commercial ops" ();
  Netbase.Router.permit router ~src_subnet:Spire.Addressing.commercial_subnet
    ~dst_subnet:Spire.Addressing.enterprise_subnet ~description:"commercial ops to enterprise" ();
  Netbase.Router.permit router ~src_subnet:Spire.Addressing.enterprise_subnet
    ~dst_subnet:Spire.Addressing.external_subnet ~description:"enterprise to spire ops" ();
  Netbase.Router.permit router ~src_subnet:Spire.Addressing.external_subnet
    ~dst_subnet:Spire.Addressing.enterprise_subnet ~description:"spire ops to enterprise" ();
  let historian = Scada.Historian.create () in
  (* Feed the historian from the commercial master's state changes (its
     normal data source in the testbed). *)
  ignore
    (Sim.Engine.every engine ~period:5.0 (fun () ->
         Scada.Historian.record historian ~time:(Sim.Engine.now engine) ~source:"commercial"
           ~kind:"sample" ~detail:"periodic archive"));
  {
    engine;
    trace;
    enterprise_switch;
    enterprise_pcap;
    historian_host;
    workstation;
    router;
    commercial;
    spire;
    historian;
  }

let commercial t = t.commercial

let spire t = t.spire

let engine t = t.engine

(* Useful target lists for reconnaissance. *)
let commercial_targets t =
  ignore t;
  Spire.Addressing.commercial_master :: Spire.Addressing.commercial_backup
  :: Spire.Addressing.commercial_hmi
  :: List.init
       (Array.length (Spire.Commercial.plc_hosts t.commercial))
       (fun k -> Spire.Addressing.commercial_plc k)

let spire_targets t =
  let n = (Spire.Deployment.config t.spire).Prime.Config.n in
  let n_proxies = Array.length (Spire.Deployment.proxies t.spire) in
  List.init n (fun i -> Spire.Addressing.replica_external i)
  @ List.init n_proxies (fun k -> Spire.Addressing.proxy_external k)
  @ [ Spire.Addressing.hmi_external 0 ]
