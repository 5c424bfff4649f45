(* PLC proxy.

   Sits between the field device and the replicated system: speaks plain
   Modbus over a dedicated wire to its PLC (the only place the insecure
   protocol exists), and signed SCADA traffic over the Spines external
   network toward the masters.

   Two jobs:
   - poll the PLC's process image and introduce Status updates into the
     replicated system whenever a breaker position changes;
   - actuate breakers, but only after f + 1 distinct replicas send the
     same command for the same execution point, so that a single
     compromised SCADA master cannot operate field equipment. *)

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  host : Netbase.Host.t;
  plc_ip : Netbase.Addr.Ip.t;
  breaker_names : string array; (* index = coil/register address *)
  client : Prime.Client.t;
  mutable last_known : bool option array; (* reported closed, per coil *)
  mutable batch_cursor : int; (* monotone sequence for aggregated poll reports *)
  command_gate : Threshold.t;
  mutable transaction : int;
  mutable poll_timer : Sim.Engine.timer option;
  counters : Sim.Stats.Counter.t;
  mutable on_actuate : (key:string -> breaker:string -> close:bool -> unit) option;
}

let modbus_local_port = 5020

let create ~engine ~trace ~keystore ~config ~host ~plc_ip ~breaker_names ~client name =
  let t =
    {
      name;
      engine;
      trace;
      keystore;
      config;
      host;
      plc_ip;
      breaker_names = Array.of_list breaker_names;
      client;
      last_known = Array.make (List.length breaker_names) None;
      batch_cursor = 0;
      command_gate = Threshold.create ~needed:(config.Prime.Config.f + 1) ();
      transaction = 0;
      poll_timer = None;
      counters = Sim.Stats.Counter.create ();
      on_actuate = None;
    }
  in
  t

let name t = t.name

let counters t = t.counters

let set_on_actuate t hook = t.on_actuate <- Some hook

let coil_of_breaker t breaker =
  let rec scan i =
    if i >= Array.length t.breaker_names then None
    else if String.equal t.breaker_names.(i) breaker then Some i
    else scan (i + 1)
  in
  scan 0

(* --- Modbus side ------------------------------------------------------------ *)

let send_modbus t body =
  t.transaction <- t.transaction + 1;
  let bytes =
    Plc.Modbus.encode_request { Plc.Modbus.transaction = t.transaction; unit_id = 1; body }
  in
  Netbase.Host.udp_send t.host ~dst_ip:t.plc_ip ~dst_port:Plc.Modbus.tcp_port
    ~src_port:modbus_local_port ~size:(String.length bytes) (Plc.Modbus.Frame bytes)

let poll t =
  Sim.Stats.Counter.incr t.counters "poll";
  send_modbus t (Plc.Modbus.Read_holding_registers { addr = 0; count = Array.length t.breaker_names })

(* Poll aggregation: every position change one polling round observed is
   submitted as a single Batch op — one client update, one Spines frame,
   one ordered op — instead of one op per device. A round with a single
   change keeps the plain Status path so its span and latency profile
   match the un-aggregated deployments. *)
let submit_changes t changes =
  let now = Sim.Engine.now t.engine in
  List.iter
    (fun (name, closed) ->
      Sim.Stats.Counter.incr t.counters "status.reported";
      Obs.Registry.mark_status Obs.Registry.default ~breaker:name ~closed
        ~stage:Obs.Registry.stage_report ~time:now)
    changes;
  match changes with
  | [] -> ()
  | [ (breaker, closed) ] ->
      ignore (Prime.Client.submit t.client ~op:(Op.encode (Op.Status { breaker; closed })))
  | reports ->
      t.batch_cursor <- t.batch_cursor + 1;
      Sim.Stats.Counter.incr t.counters "status.batched";
      let op = Op.Batch { origin = t.name; cursor = t.batch_cursor; reports } in
      ignore (Prime.Client.submit t.client ~op:(Op.encode op))

let handle_registers t regs =
  let changes = ref [] in
  List.iteri
    (fun i value ->
      if i < Array.length t.breaker_names then begin
        let closed = value = 1 in
        let report =
          match t.last_known.(i) with None -> true | Some previous -> previous <> closed
        in
        if report then begin
          t.last_known.(i) <- Some closed;
          changes := (t.breaker_names.(i), closed) :: !changes
        end
      end)
    regs;
  submit_changes t (List.rev !changes)

let handle_modbus_response t bytes =
  match Plc.Modbus.decode_response bytes with
  | { Plc.Modbus.body = Plc.Modbus.Registers regs; _ } -> handle_registers t regs
  | { Plc.Modbus.body = Plc.Modbus.Coil_written _; _ } -> Sim.Stats.Counter.incr t.counters "coil.acked"
  | { Plc.Modbus.body = Plc.Modbus.Exception_response { exception_code; _ }; _ } ->
      Sim.Stats.Counter.incr t.counters "modbus.exception";
      Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"proxy"
        "%s: modbus exception %d" t.name exception_code
  | { Plc.Modbus.body = Plc.Modbus.Coils _ | Plc.Modbus.Register_written _; _ } -> ()
  | exception Plc.Modbus.Decode_error _ -> Sim.Stats.Counter.incr t.counters "modbus.garbage"

(* --- replicated-system side --------------------------------------------------- *)

let handle_breaker_command t ~rep ~exec_seq ~breaker ~close signature =
  let body = Messages.encode_breaker_command ~rep ~exec_seq ~breaker ~close in
  let valid =
    Crypto.Signature.verify t.keystore ~signer:(Prime.Msg.replica_identity rep) body signature
  in
  if not valid then Sim.Stats.Counter.incr t.counters "command.bad_sig"
  else begin
    let key = Printf.sprintf "%d:%s:%b" exec_seq breaker close in
    (* f + 1 distinct replicas agreeing: at least one is correct, and a
       correct replica only sends commands the system ordered. *)
    if Threshold.vote t.command_gate ~key ~voter:rep then begin
      if Obs.Flight.recording Obs.Flight.default then
        Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
          ~severity:Obs.Flight.Info ~subsystem:"scada" ~kind:"gate.command"
          (Printf.sprintf "%s: command gate crossed for %s" t.name key);
      match coil_of_breaker t breaker with
      | Some coil ->
          Sim.Stats.Counter.incr t.counters "command.actuated";
          Obs.Registry.mark_command Obs.Registry.default ~breaker ~close
            ~stage:Obs.Registry.stage_actuate ~time:(Sim.Engine.now t.engine);
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"proxy"
            "%s: actuating %s -> %s" t.name breaker (if close then "closed" else "open");
          (match t.on_actuate with Some h -> h ~key ~breaker ~close | None -> ());
          send_modbus t (Plc.Modbus.Write_single_coil { addr = coil; value = close })
      | None -> Sim.Stats.Counter.incr t.counters "command.unknown_breaker"
    end
  end

(* Payloads arriving from the replicated system (via Spines). *)
let handle_payload t payload =
  match payload with
  | Messages.Scada_msg (Messages.Breaker_command { bc_rep; bc_exec_seq; bc_breaker; bc_close; bc_sig })
    ->
      handle_breaker_command t ~rep:bc_rep ~exec_seq:bc_exec_seq ~breaker:bc_breaker
        ~close:bc_close bc_sig
  | Prime.Msg.Prime_msg reply -> Prime.Client.handle_reply t.client reply
  | _ -> ()

let start t ~poll_period =
  (* Bind the Modbus client port on the proxy host and start polling. *)
  Netbase.Host.udp_bind t.host ~port:modbus_local_port
    (fun ~src:_ ~dst_port:_ ~size:_ payload ->
      match payload with
      | Plc.Modbus.Frame bytes -> handle_modbus_response t bytes
      | _ -> Sim.Stats.Counter.incr t.counters "modbus.garbage");
  t.poll_timer <- Some (Sim.Engine.every t.engine ~period:poll_period (fun () -> poll t));
  poll t

(* Forget what was last reported: the next polling round re-submits every
   breaker's position. Used by the ground-truth rebuild (Section III-A),
   where the masters' fresh state must be repopulated from the field. *)
let reset_reporting t = Array.fill t.last_known 0 (Array.length t.last_known) None

let stop t =
  match t.poll_timer with
  | Some timer ->
      Sim.Engine.cancel_timer t.engine timer;
      t.poll_timer <- None
  | None -> ()
