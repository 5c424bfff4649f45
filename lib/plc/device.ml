(* Emulated PLC (OpenPLC stand-in).

   Serves Modbus on port 502: coils command the wired breakers, holding
   registers expose their actual positions. Also carries the vendor
   maintenance service the red team abused on the commercial system — an
   unauthenticated configuration dump/upload channel on a separate port.
   Once malicious logic is uploaded, the PLC ignores legitimate coil
   writes and obeys the attacker's actuation commands: exactly the
   control takeover described in Section IV-B. *)

let maintenance_port = 9600

type Netbase.Packet.payload +=
  | Maint_dump_request
  | Maint_dump_reply of string
  | Maint_upload of string
  | Maint_actuate of { coil : int; close : bool }
  | Maint_ack

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  coils : bool array; (* commanded: true = close breaker *)
  breakers : Breaker.t option array;
  original_config : string;
  mutable config : string;
  counters : Sim.Stats.Counter.t;
}

let create ~engine ~trace ~name ~n_coils =
  {
    name;
    engine;
    trace;
    coils = Array.make n_coils false;
    breakers = Array.make n_coils None;
    original_config = Printf.sprintf "ladder-logic:%s:v1" name;
    config = Printf.sprintf "ladder-logic:%s:v1" name;
    counters = Sim.Stats.Counter.create ();
  }

let name t = t.name

let counters t = t.counters

let n_coils t = Array.length t.coils

let logic_compromised t = not (String.equal t.config t.original_config)

let wire_breaker t ~coil breaker =
  if coil < 0 || coil >= Array.length t.coils then invalid_arg "Device.wire_breaker: bad coil";
  t.breakers.(coil) <- Some breaker;
  t.coils.(coil) <- Breaker.commanded breaker = Breaker.Closed

let breaker t ~coil = t.breakers.(coil)

(* Actual position as seen by the process image: 1 = closed. *)
let holding_value t i =
  match t.breakers.(i) with
  | Some b -> if Breaker.is_closed b then 1 else 0
  | None -> if t.coils.(i) then 1 else 0

let write_coil t ~coil value =
  if coil >= 0 && coil < Array.length t.coils then begin
    t.coils.(coil) <- value;
    match t.breakers.(coil) with
    | Some b -> Breaker.command b (if value then Breaker.Closed else Breaker.Open)
    | None -> ()
  end

(* --- Modbus service ------------------------------------------------------ *)

let handle_request t (req : Modbus.request Modbus.framed) : Modbus.response Modbus.framed =
  let illegal code =
    { req with Modbus.body = Modbus.Exception_response { function_code = code; exception_code = 2 } }
  in
  Sim.Stats.Counter.incr t.counters "modbus.request";
  match req.Modbus.body with
  | Modbus.Read_coils { addr; count } ->
      if addr < 0 || addr + count > Array.length t.coils then illegal 0x01
      else
        { req with Modbus.body = Modbus.Coils (List.init count (fun i -> t.coils.(addr + i))) }
  | Modbus.Write_single_coil { addr; value } ->
      if addr < 0 || addr >= Array.length t.coils then illegal 0x05
      else if logic_compromised t then begin
        (* Malicious logic discards operator commands. *)
        Sim.Stats.Counter.incr t.counters "modbus.ignored_by_malware";
        Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"plc"
          "%s: compromised logic ignored write-coil %d=%b" t.name addr value;
        { req with Modbus.body = Modbus.Coil_written { addr; value } }
      end
      else begin
        write_coil t ~coil:addr value;
        { req with Modbus.body = Modbus.Coil_written { addr; value } }
      end
  | Modbus.Read_holding_registers { addr; count } ->
      if addr < 0 || addr + count > Array.length t.coils then illegal 0x03
      else
        { req with
          Modbus.body = Modbus.Registers (List.init count (fun i -> holding_value t (addr + i)))
        }
  | Modbus.Write_single_register { addr; value } ->
      if addr < 0 || addr >= Array.length t.coils then illegal 0x06
      else begin
        write_coil t ~coil:addr (value <> 0);
        { req with Modbus.body = Modbus.Register_written { addr; value } }
      end

(* Bind the Modbus and maintenance services on a host. The maintenance
   service is the attack surface: unauthenticated by design (vendor
   default), so network reachability is the only protection. *)
let serve_on t host =
  Netbase.Host.add_service host ~port:Modbus.tcp_port
    { Netbase.Host.name = "modbus"; remote_vuln = None };
  Netbase.Host.udp_bind host ~port:Modbus.tcp_port (fun ~src ~dst_port:_ ~size:_ payload ->
      match payload with
      | Modbus.Frame bytes -> (
          match Modbus.decode_request bytes with
          | req ->
              let resp = Modbus.encode_response (handle_request t req) in
              Netbase.Host.udp_send host ~dst_ip:src.Netbase.Addr.ip
                ~dst_port:src.Netbase.Addr.port ~src_port:Modbus.tcp_port
                ~size:(String.length resp) (Modbus.Frame resp)
          | exception Modbus.Decode_error _ ->
              Sim.Stats.Counter.incr t.counters "modbus.garbage")
      | _ -> Sim.Stats.Counter.incr t.counters "modbus.garbage");
  Netbase.Host.add_service host ~port:maintenance_port
    { Netbase.Host.name = "plc-maintenance"; remote_vuln = None };
  Netbase.Host.udp_bind host ~port:maintenance_port (fun ~src ~dst_port:_ ~size:_ payload ->
      let reply p size =
        Netbase.Host.udp_send host ~dst_ip:src.Netbase.Addr.ip ~dst_port:src.Netbase.Addr.port
          ~src_port:maintenance_port ~size p
      in
      match payload with
      | Maint_dump_request ->
          Sim.Stats.Counter.incr t.counters "maint.dump";
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"plc"
            "%s: configuration dumped via maintenance port" t.name;
          reply (Maint_dump_reply t.config) (String.length t.config + 16)
      | Maint_upload config ->
          Sim.Stats.Counter.incr t.counters "maint.upload";
          t.config <- config;
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"plc"
            "%s: configuration REPLACED via maintenance port%s" t.name
            (if logic_compromised t then " (malicious logic installed)" else "");
          reply Maint_ack 16
      | Maint_actuate { coil; close } ->
          (* Only honoured by compromised logic: stock firmware exposes
             dump/upload but not direct actuation. *)
          if logic_compromised t then begin
            Sim.Stats.Counter.incr t.counters "maint.actuate";
            if coil >= 0 && coil < Array.length t.coils then begin
              t.coils.(coil) <- close;
              match t.breakers.(coil) with
              | Some b -> Breaker.command b (if close then Breaker.Closed else Breaker.Open)
              | None -> ()
            end;
            reply Maint_ack 16
          end
      | Maint_dump_reply _ | Maint_ack -> ()
      | _ -> Sim.Stats.Counter.incr t.counters "maint.garbage")
