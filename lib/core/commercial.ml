(* Commercial SCADA baseline (the parallel system of the red-team
   experiment, configured to NIST-recommended best practices).

   Primary-backup SCADA master, PLCs directly on the operations network,
   plaintext unauthenticated master-to-HMI protocol, periodic polling.
   This is both the red team's first victim (Section IV-B) and the
   latency comparator of the plant deployment (Section V).

   The payload constructors are deliberately public: anyone on the wire
   can read and forge them, which is precisely the weakness the MITM
   attack exploited. *)

type Netbase.Packet.payload +=
  | Hmi_plain of { breaker : string; closed : bool }
  | Hmi_command of { breaker : string; close : bool }
  | Heartbeat of { from_primary : bool }

let hmi_port = 5500

let heartbeat_port = 5600

let command_port = 5510

type master_role = { m_host : Netbase.Host.t; mutable m_active : bool }

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  ops_switch : Netbase.Switch.t;
  primary : master_role;
  backup : master_role;
  hmi_host : Netbase.Host.t;
  plc_hosts : Netbase.Host.t array;
  devices : Plc.Device.t array;
  breakers : Plc.Breaker.t array array;
  scenario : Plc.Power.scenario;
  master_view : (string, bool) Hashtbl.t; (* primary's process image *)
  hmi_display : (string, bool) Hashtbl.t;
  mutable on_display_change : (breaker:string -> closed:bool -> unit) list;
  mutable last_heartbeat : float;
  mutable transaction : int;
  plc_ip_of_breaker : (string, Netbase.Addr.Ip.t * int) Hashtbl.t; (* -> plc ip, coil *)
  counters : Sim.Stats.Counter.t;
  pcap : Netbase.Pcap.t;
}

(* The masters' PLC poll and full HMI refresh periods (seconds). *)
let poll_period = 0.5

let refresh_period = 0.5

let counters t = t.counters

let ops_switch t = t.ops_switch

let pcap t = t.pcap

let hmi_host t = t.hmi_host

let primary_host t = t.primary.m_host

let plc_hosts t = t.plc_hosts

let devices t = t.devices

let scenario t = t.scenario

let breakers t = Array.concat (Array.to_list t.breakers)

let find_breaker t name =
  let all = breakers t in
  let rec scan i =
    if i >= Array.length all then None
    else if String.equal (Plc.Breaker.name all.(i)) name then Some all.(i)
    else scan (i + 1)
  in
  scan 0

let on_display_change t f = t.on_display_change <- f :: t.on_display_change

let displayed_closed t breaker = Hashtbl.find_opt t.hmi_display breaker

(* --- master logic ----------------------------------------------------------- *)

let active_master t = if t.primary.m_active then t.primary else t.backup

let send_modbus t role ~dst_ip body =
  t.transaction <- t.transaction + 1;
  let bytes =
    Plc.Modbus.encode_request { Plc.Modbus.transaction = t.transaction; unit_id = 1; body }
  in
  Netbase.Host.udp_send role.m_host ~dst_ip ~dst_port:Plc.Modbus.tcp_port
    ~src_port:Scada.Proxy.modbus_local_port ~size:(String.length bytes) (Plc.Modbus.Frame bytes)

let push_hmi t role ~breaker ~closed =
  Sim.Stats.Counter.incr t.counters "master.hmi_push";
  Netbase.Host.udp_send role.m_host ~dst_ip:Addressing.commercial_hmi ~dst_port:hmi_port
    ~src_port:hmi_port ~size:64 (Hmi_plain { breaker; closed })

let poll_all t role =
  Array.iteri
    (fun k device ->
      send_modbus t role ~dst_ip:(Addressing.commercial_plc k)
        (Plc.Modbus.Read_holding_registers { addr = 0; count = Plc.Device.n_coils device }))
    t.devices

(* Registers come back without saying which PLC they belong to; match by
   source address. *)
let plc_index_of_ip t ip =
  let found = ref None in
  Array.iteri
    (fun k _ -> if Netbase.Addr.Ip.equal (Addressing.commercial_plc k) ip then found := Some k)
    t.plc_hosts;
  !found

let handle_master_modbus t role ~src_ip bytes =
  match Plc.Modbus.decode_response bytes with
  | { Plc.Modbus.body = Plc.Modbus.Registers regs; _ } -> (
      match plc_index_of_ip t src_ip with
      | None -> ()
      | Some k ->
          List.iteri
            (fun i value ->
              if i < Array.length t.breakers.(k) then begin
                let name = Plc.Breaker.name t.breakers.(k).(i) in
                let closed = value = 1 in
                let changed =
                  match Hashtbl.find_opt t.master_view name with
                  | Some previous -> previous <> closed
                  | None -> true
                in
                if changed then begin
                  Hashtbl.replace t.master_view name closed;
                  Sim.Stats.Counter.incr t.counters "master.state_change";
                  push_hmi t role ~breaker:name ~closed
                end
              end)
            regs)
  | { Plc.Modbus.body = _; _ } -> ()
  | exception Plc.Modbus.Decode_error _ -> Sim.Stats.Counter.incr t.counters "master.garbage"

let handle_command t role ~breaker ~close =
  Sim.Stats.Counter.incr t.counters "master.command";
  match Hashtbl.find_opt t.plc_ip_of_breaker breaker with
  | Some (ip, coil) ->
      send_modbus t role ~dst_ip:ip (Plc.Modbus.Write_single_coil { addr = coil; value = close })
  | None -> Sim.Stats.Counter.incr t.counters "master.unknown_breaker"

let setup_master t role ~is_primary =
  Netbase.Host.add_service role.m_host ~port:hmi_port
    { Netbase.Host.name = "scada-master"; remote_vuln = None };
  Netbase.Host.udp_bind role.m_host ~port:Scada.Proxy.modbus_local_port
    (fun ~src ~dst_port:_ ~size:_ payload ->
      match payload with
      | Plc.Modbus.Frame bytes ->
          if role.m_active then handle_master_modbus t role ~src_ip:src.Netbase.Addr.ip bytes
      | _ -> ());
  Netbase.Host.udp_bind role.m_host ~port:command_port (fun ~src:_ ~dst_port:_ ~size:_ payload ->
      match payload with
      | Hmi_command { breaker; close } -> if role.m_active then handle_command t role ~breaker ~close
      | _ -> ());
  ignore
    (Sim.Engine.every t.engine ~period:poll_period (fun () ->
         if role.m_active then poll_all t role));
  (* Periodic full refresh toward the HMI, as commercial masters do. *)
  ignore
    (Sim.Engine.every t.engine ~period:refresh_period (fun () ->
         if role.m_active then
           Hashtbl.iter (fun breaker closed -> push_hmi t role ~breaker ~closed) t.master_view));
  if is_primary then
    ignore
      (Sim.Engine.every t.engine ~period:0.5 (fun () ->
           if role.m_active then
             Netbase.Host.udp_send role.m_host ~dst_ip:Addressing.commercial_backup
               ~dst_port:heartbeat_port ~src_port:heartbeat_port ~size:32
               (Heartbeat { from_primary = true })))
  else begin
    Netbase.Host.udp_bind role.m_host ~port:heartbeat_port
      (fun ~src:_ ~dst_port:_ ~size:_ payload ->
        match payload with
        | Heartbeat _ -> t.last_heartbeat <- Sim.Engine.now t.engine
        | _ -> ());
    (* Failover: backup activates when the primary goes quiet. *)
    ignore
      (Sim.Engine.every t.engine ~period:1.0 (fun () ->
           if
             (not role.m_active)
             && Sim.Engine.now t.engine -. t.last_heartbeat > 2.0
             && Sim.Engine.now t.engine > 3.0
           then begin
             role.m_active <- true;
             Sim.Stats.Counter.incr t.counters "failover";
             Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"commercial"
               "backup master took over"
           end))
  end

(* --- HMI --------------------------------------------------------------------- *)

let setup_hmi t =
  Netbase.Host.add_service t.hmi_host ~port:hmi_port
    { Netbase.Host.name = "hmi"; remote_vuln = None };
  Netbase.Host.udp_bind t.hmi_host ~port:hmi_port (fun ~src:_ ~dst_port:_ ~size:_ payload ->
      match payload with
      | Hmi_plain { breaker; closed } ->
          (* No authentication: whatever arrives is displayed. *)
          let changed =
            match Hashtbl.find_opt t.hmi_display breaker with
            | Some previous -> previous <> closed
            | None -> true
          in
          if changed then begin
            Hashtbl.replace t.hmi_display breaker closed;
            Sim.Stats.Counter.incr t.counters "hmi.display_change";
            List.iter (fun f -> f ~breaker ~closed) t.on_display_change
          end
      | _ -> ())

(* Operator command from the commercial HMI. *)
let hmi_command t ~breaker ~close =
  Netbase.Host.udp_send t.hmi_host ~dst_ip:Addressing.commercial_master ~dst_port:command_port
    ~src_port:command_port ~size:64 (Hmi_command { breaker; close })

(* --- construction ------------------------------------------------------------- *)

let create ~engine ~trace scenario =
  (* Best practice did not include port security on the testbed's
     operations switch; learning mode reflects that. *)
  let ops_switch = Netbase.Switch.create ~mode:Netbase.Switch.Learning ~engine ~trace "commercial-ops" in
  let pcap = Netbase.Pcap.create () in
  Netbase.Switch.add_tap ops_switch (fun frame ->
      Netbase.Pcap.capture pcap ~time:(Sim.Engine.now engine) frame);
  let mk_host name ip =
    (* Commercial components keep vendor defaults: permissive firewall,
       stock desktop OS. *)
    let host = Netbase.Host.create ~os:Netbase.Host.ubuntu_desktop ~engine ~trace name in
    let nic = Netbase.Host.add_nic host ~ip in
    let (_ : int) = Netbase.Host.plug_into_switch host nic ops_switch in
    Netbase.Host.set_default_gateway host Addressing.commercial_gateway;
    host
  in
  let primary_host = mk_host "comm-master" Addressing.commercial_master in
  let backup_host = mk_host "comm-backup" Addressing.commercial_backup in
  let hmi_host = mk_host "comm-hmi" Addressing.commercial_hmi in
  let plc_specs = Array.of_list scenario.Plc.Power.plcs in
  let plc_hosts =
    Array.mapi
      (fun k (spec : Plc.Power.plc_spec) ->
        mk_host ("comm-plc-" ^ spec.Plc.Power.plc_name) (Addressing.commercial_plc k))
      plc_specs
  in
  let devices =
    Array.mapi
      (fun k (spec : Plc.Power.plc_spec) ->
        let device =
          Plc.Device.create ~engine ~trace ~name:("COMM-" ^ spec.Plc.Power.plc_name)
            ~n_coils:(List.length spec.Plc.Power.breaker_names)
        in
        Plc.Device.serve_on device plc_hosts.(k);
        device)
      plc_specs
  in
  let breakers =
    Array.mapi
      (fun k (spec : Plc.Power.plc_spec) ->
        Array.of_list
          (List.mapi
             (fun coil breaker_name ->
               let b = Plc.Breaker.create ~engine breaker_name in
               Plc.Device.wire_breaker devices.(k) ~coil b;
               b)
             spec.Plc.Power.breaker_names))
      plc_specs
  in
  let plc_ip_of_breaker = Hashtbl.create 64 in
  Array.iteri
    (fun k (spec : Plc.Power.plc_spec) ->
      List.iteri
        (fun coil breaker_name ->
          Hashtbl.replace plc_ip_of_breaker breaker_name (Addressing.commercial_plc k, coil))
        spec.Plc.Power.breaker_names)
    plc_specs;
  let t =
    {
      engine;
      trace;
      ops_switch;
      primary = { m_host = primary_host; m_active = true };
      backup = { m_host = backup_host; m_active = false };
      hmi_host;
      plc_hosts;
      devices;
      breakers;
      scenario;
      master_view = Hashtbl.create 64;
      hmi_display = Hashtbl.create 64;
      on_display_change = [];
      last_heartbeat = 0.0;
      transaction = 0;
      plc_ip_of_breaker;
      counters = Sim.Stats.Counter.create ();
      pcap;
    }
  in
  setup_master t t.primary ~is_primary:true;
  setup_master t t.backup ~is_primary:false;
  setup_hmi t;
  t

let fail_primary t =
  t.primary.m_active <- false;
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"commercial"
    "primary master failed"

let active_master_host t = (active_master t).m_host
