(* Field proxy.

   A bump-in-the-wire between one field device and the replicated
   system. Toward the device it speaks the legacy protocol over a
   dedicated wire (the only place the insecure protocol exists): Modbus
   to a PLC or DNP3 to an RTU. Toward the masters it speaks signed SCADA
   traffic over the Spines external network, and that half is the same
   whatever the device. Two jobs:
   - poll the device's process image and introduce Status updates into
     the replicated system whenever a breaker position changes;
   - actuate breakers, but only after f + 1 distinct replicas send the
     same command for the same execution point, so that a single
     compromised SCADA master cannot operate field equipment.

   DNP3's event model changes the polling pattern: a fast class-1 event
   poll collects buffered change events (with device timestamps), and a
   slower integrity poll (class 0) re-reads the full static image to
   guard against missed or overflowed events. An RTU also serves an
   analog image, shipped dead-band-filtered as Telemetry ops. *)

type protocol = Modbus | Dnp3 of { analog_names : string list }

type analog = {
  analog_names : string array; (* index = DNP3 analog point index *)
  last_analog : int option array;
  mutable analog_rewrite : ((string * int) list -> (string * int) list) option;
      (* FDIA hook: a compromised proxy rewrites the analog image it
         just polled before dead-band filtering and submission *)
}

type field = Modbus_plc | Dnp3_rtu of analog

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  host : Netbase.Host.t;
  device_ip : Netbase.Addr.Ip.t;
  field : field;
  breaker_names : string array; (* index = coil/register address or DNP3 point index *)
  client : Prime.Client.t;
  last_known : bool option array; (* reported closed, per breaker *)
  mutable batch_cursor : int; (* monotone sequence for aggregated poll reports *)
  command_gate : Threshold.t;
  mutable sequence : int; (* Modbus transaction id or DNP3 sequence number *)
  mutable timers : Sim.Engine.timer list;
  counters : Sim.Stats.Counter.t;
  mutable on_actuate : (key:string -> breaker:string -> close:bool -> unit) option;
}

let modbus_local_port = 5020

let dnp3_local_port = 5021

let create ~engine ~trace ~keystore ~config ~host ~device_ip ~breaker_names ~client protocol
    name =
  let field =
    match protocol with
    | Modbus -> Modbus_plc
    | Dnp3 { analog_names } ->
        Dnp3_rtu
          {
            analog_names = Array.of_list analog_names;
            last_analog = Array.make (List.length analog_names) None;
            analog_rewrite = None;
          }
  in
  {
    name;
    engine;
    trace;
    keystore;
    host;
    device_ip;
    field;
    breaker_names = Array.of_list breaker_names;
    client;
    last_known = Array.make (List.length breaker_names) None;
    batch_cursor = 0;
    command_gate = Threshold.create ~needed:(config.Prime.Config.f + 1) ();
    sequence = 0;
    timers = [];
    counters = Sim.Stats.Counter.create ();
    on_actuate = None;
  }

let name t = t.name

let counters t = t.counters

let set_on_actuate t hook = t.on_actuate <- Some hook

let set_analog_rewrite t hook =
  match t.field with
  | Dnp3_rtu a ->
      a.analog_rewrite <- hook;
      true
  | Modbus_plc -> false

let index_of names name =
  let rec scan i =
    if i >= Array.length names then None
    else if String.equal names.(i) name then Some i
    else scan (i + 1)
  in
  scan 0

(* --- replicated-system side: reports ------------------------------------------ *)

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

(* Record a position locally; a transition is prepended to [changes]. *)
let note_change t ~index ~closed changes =
  if
    index < Array.length t.breaker_names
    && match t.last_known.(index) with None -> true | Some previous -> previous <> closed
  then begin
    t.last_known.(index) <- Some closed;
    (t.breaker_names.(index), closed) :: changes
  end
  else changes

(* A full image (Modbus registers, DNP3 static data) in point order: its
   transitions ride one submission. *)
let report_image t closed_of values =
  let rec scan index changes = function
    | [] -> submit_changes t (List.rev changes)
    | v :: rest -> scan (index + 1) (note_change t ~index ~closed:(closed_of v) changes) rest
  in
  scan 0 [] values

(* --- Modbus side -------------------------------------------------------------- *)

let send_modbus t body =
  t.sequence <- t.sequence + 1;
  let bytes =
    Plc.Modbus.encode_request { Plc.Modbus.transaction = t.sequence; unit_id = 1; body }
  in
  Netbase.Host.udp_send t.host ~dst_ip:t.device_ip ~dst_port:Plc.Modbus.tcp_port
    ~src_port:modbus_local_port ~size:(String.length bytes) (Plc.Modbus.Frame bytes)

let poll t =
  Sim.Stats.Counter.incr t.counters "poll";
  send_modbus t (Plc.Modbus.Read_holding_registers { addr = 0; count = Array.length t.breaker_names })

let handle_modbus_response t bytes =
  match Plc.Modbus.decode_response bytes with
  | { Plc.Modbus.body = Plc.Modbus.Registers regs; _ } ->
      report_image t (fun value -> value = 1) regs
  | { Plc.Modbus.body = Plc.Modbus.Coil_written _; _ } -> Sim.Stats.Counter.incr t.counters "coil.acked"
  | { Plc.Modbus.body = Plc.Modbus.Exception_response { exception_code; _ }; _ } ->
      Sim.Stats.Counter.incr t.counters "modbus.exception";
      Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"proxy"
        "%s: modbus exception %d" t.name exception_code
  | { Plc.Modbus.body = Plc.Modbus.Coils _ | Plc.Modbus.Register_written _; _ } -> ()
  | exception Plc.Modbus.Decode_error _ -> Sim.Stats.Counter.incr t.counters "modbus.garbage"

(* --- DNP3 side ---------------------------------------------------------------- *)

let send_dnp3 t body =
  t.sequence <- (t.sequence + 1) land 0xFF;
  let bytes = Plc.Dnp3.encode_request { Plc.Dnp3.sequence = t.sequence; body } in
  Netbase.Host.udp_send t.host ~dst_ip:t.device_ip ~dst_port:Plc.Dnp3.tcp_port
    ~src_port:dnp3_local_port ~size:(String.length bytes) (Plc.Dnp3.Frame bytes)

let event_poll t a =
  Sim.Stats.Counter.incr t.counters "poll.event";
  send_dnp3 t (Plc.Dnp3.Read_class { classes = [ 1 ] });
  if Array.length a.analog_names > 0 then begin
    Sim.Stats.Counter.incr t.counters "poll.analog";
    send_dnp3 t Plc.Dnp3.Read_analogs
  end

let integrity_poll t =
  Sim.Stats.Counter.incr t.counters "poll.integrity";
  send_dnp3 t (Plc.Dnp3.Read_class { classes = [ 0 ] })

(* Scaled-integer dead band: changes smaller than this are measurement
   jitter, not worth an ordered update. *)
let analog_deadband = 2

(* Pair the polled analog image with its point names, run the (normally
   absent) rewrite hook, dead-band against the last submitted values and
   ship the changed readings as one Telemetry op under the next batch
   cursor. *)
let handle_analog_data t a values =
  let n = Array.length a.analog_names in
  let readings = List.filteri (fun i _ -> i < n) values in
  let readings = List.mapi (fun i v -> (a.analog_names.(i), v)) readings in
  let readings =
    match a.analog_rewrite with Some rewrite -> rewrite readings | None -> readings
  in
  let changed = ref [] in
  List.iter
    (fun (pt, v) ->
      match index_of a.analog_names pt with
      | Some i ->
          let report =
            match a.last_analog.(i) with
            | None -> true
            | Some prev -> abs (v - prev) >= analog_deadband
          in
          if report then begin
            a.last_analog.(i) <- Some v;
            changed := (pt, v) :: !changed
          end
      | None -> ())
    readings;
  match List.rev !changed with
  | [] -> ()
  | readings ->
      t.batch_cursor <- t.batch_cursor + 1;
      Sim.Stats.Counter.incr t.counters "telemetry.reported";
      let op = Op.Telemetry { origin = t.name; cursor = t.batch_cursor; readings } in
      ignore (Prime.Client.submit t.client ~op:(Op.encode op))

let handle_dnp3_response t a bytes =
  match Plc.Dnp3.decode_response bytes with
  | { Plc.Dnp3.body = Plc.Dnp3.Events events; _ } ->
      if events <> [] then begin
        (* Apply in device-time order; only the newest state per point
           matters for the report, and [note_change] keeps exactly the
           transitions. *)
        let changes =
          List.fold_left
            (fun acc (e : Plc.Dnp3.event) ->
              note_change t ~index:e.Plc.Dnp3.ev_index ~closed:e.Plc.Dnp3.ev_closed acc)
            [] events
        in
        submit_changes t (List.rev changes);
        send_dnp3 t Plc.Dnp3.Clear_events
      end
  | { Plc.Dnp3.body = Plc.Dnp3.Static_data bits; _ } ->
      report_image t Fun.id bits
  | { Plc.Dnp3.body = Plc.Dnp3.Analog_data values; _ } -> handle_analog_data t a values
  | { Plc.Dnp3.body = Plc.Dnp3.Operate_ack { success; _ }; _ } ->
      Sim.Stats.Counter.incr t.counters
        (if success then "operate.acked" else "operate.failed")
  | { Plc.Dnp3.body = Plc.Dnp3.Events_cleared; _ } -> ()
  | exception Plc.Dnp3.Decode_error _ -> Sim.Stats.Counter.incr t.counters "dnp3.garbage"

(* --- replicated-system side: commands ------------------------------------------ *)

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
      match index_of t.breaker_names breaker with
      | Some index -> (
          Sim.Stats.Counter.incr t.counters "command.actuated";
          Obs.Registry.mark_command Obs.Registry.default ~breaker ~close
            ~stage:Obs.Registry.stage_actuate ~time:(Sim.Engine.now t.engine);
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"proxy"
            "%s: actuating %s -> %s" t.name breaker (if close then "closed" else "open");
          (match t.on_actuate with Some h -> h ~key ~breaker ~close | None -> ());
          match t.field with
          | Modbus_plc ->
              send_modbus t (Plc.Modbus.Write_single_coil { addr = index; value = close })
          | Dnp3_rtu _ -> send_dnp3 t (Plc.Dnp3.Operate { index; close }))
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

(* Bind the field protocol's client port on the proxy host and start
   polling. *)
let start t ~poll_period =
  match t.field with
  | Modbus_plc ->
      Netbase.Host.udp_bind t.host ~port:modbus_local_port
        (fun ~src:_ ~dst_port:_ ~size:_ payload ->
          match payload with
          | Plc.Modbus.Frame bytes -> handle_modbus_response t bytes
          | _ -> Sim.Stats.Counter.incr t.counters "modbus.garbage");
      t.timers <- [ Sim.Engine.every t.engine ~period:poll_period (fun () -> poll t) ];
      poll t
  | Dnp3_rtu a ->
      Netbase.Host.udp_bind t.host ~port:dnp3_local_port (fun ~src:_ ~dst_port:_ ~size:_ payload ->
          match payload with
          | Plc.Dnp3.Frame bytes -> handle_dnp3_response t a bytes
          | _ -> Sim.Stats.Counter.incr t.counters "dnp3.garbage");
      t.timers <-
        [
          Sim.Engine.every t.engine ~period:poll_period (fun () -> event_poll t a);
          (* Integrity poll at 20x the event-poll period. *)
          Sim.Engine.every t.engine ~period:(20.0 *. poll_period) (fun () -> integrity_poll t);
        ];
      integrity_poll t

(* Forget what was last reported: the next polling round re-submits every
   breaker's position (and every analog reading). Used by the
   ground-truth rebuild (Section III-A), where the masters' fresh state
   must be repopulated from the field. *)
let reset_reporting t =
  Array.fill t.last_known 0 (Array.length t.last_known) None;
  match t.field with
  | Dnp3_rtu a -> Array.fill a.last_analog 0 (Array.length a.last_analog) None
  | Modbus_plc -> ()

let stop t =
  List.iter (Sim.Engine.cancel_timer t.engine) t.timers;
  t.timers <- []
