(* RTU proxy: the DNP3 counterpart of the Modbus PLC proxy.

   DNP3's event model changes the polling pattern: a fast class-1 event
   poll collects buffered change events (with device timestamps), and a
   slower integrity poll (class 0) re-reads the full static image to
   guard against missed or overflowed events. Collected events become
   Status updates in the replicated system; supervisory commands become
   CROB Operate requests after the same f + 1 replica threshold as the
   Modbus proxy. *)

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  keystore : Crypto.Signature.keystore;
  config : Prime.Config.t;
  host : Netbase.Host.t;
  rtu_ip : Netbase.Addr.Ip.t;
  breaker_names : string array; (* index = DNP3 point index *)
  analog_names : string array; (* index = DNP3 analog point index *)
  client : Prime.Client.t;
  last_known : bool option array;
  last_analog : int option array;
  mutable analog_rewrite : ((string * int) list -> (string * int) list) option;
      (* FDIA hook: a compromised proxy rewrites the analog image it
         just polled before dead-band filtering and submission *)
  mutable batch_cursor : int; (* monotone sequence for aggregated poll reports *)
  command_gate : Threshold.t;
  mutable sequence : int;
  mutable timers : Sim.Engine.timer list;
  counters : Sim.Stats.Counter.t;
  mutable on_actuate : (key:string -> breaker:string -> close:bool -> unit) option;
}

let dnp3_local_port = 5021

let create ?(analog_names = []) ~engine ~trace ~keystore ~config ~host ~rtu_ip ~breaker_names
    ~client name =
  {
    name;
    engine;
    trace;
    keystore;
    config;
    host;
    rtu_ip;
    breaker_names = Array.of_list breaker_names;
    analog_names = Array.of_list analog_names;
    client;
    last_known = Array.make (List.length breaker_names) None;
    last_analog = Array.make (List.length analog_names) None;
    analog_rewrite = None;
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

let set_analog_rewrite t hook = t.analog_rewrite <- hook

let point_of_breaker t breaker =
  let rec scan i =
    if i >= Array.length t.breaker_names then None
    else if String.equal t.breaker_names.(i) breaker then Some i
    else scan (i + 1)
  in
  scan 0

let point_of_analog t pt =
  let rec scan i =
    if i >= Array.length t.analog_names then None
    else if String.equal t.analog_names.(i) pt then Some i
    else scan (i + 1)
  in
  scan 0

(* --- DNP3 side --------------------------------------------------------------- *)

let send_dnp3 t body =
  t.sequence <- (t.sequence + 1) land 0xFF;
  let bytes = Plc.Dnp3.encode_request { Plc.Dnp3.sequence = t.sequence; body } in
  Netbase.Host.udp_send t.host ~dst_ip:t.rtu_ip ~dst_port:Plc.Dnp3.tcp_port
    ~src_port:dnp3_local_port ~size:(String.length bytes) (Plc.Dnp3.Frame bytes)

let event_poll t =
  Sim.Stats.Counter.incr t.counters "poll.event";
  send_dnp3 t (Plc.Dnp3.Read_class { classes = [ 1 ] });
  if Array.length t.analog_names > 0 then begin
    Sim.Stats.Counter.incr t.counters "poll.analog";
    send_dnp3 t Plc.Dnp3.Read_analogs
  end

let integrity_poll t =
  Sim.Stats.Counter.incr t.counters "poll.integrity";
  send_dnp3 t (Plc.Dnp3.Read_class { classes = [ 0 ] })

(* Record a change locally; returns the report it produced, if any. *)
let note_change t ~index ~closed =
  if index < Array.length t.breaker_names then begin
    let changed =
      match t.last_known.(index) with None -> true | Some previous -> previous <> closed
    in
    if changed then begin
      t.last_known.(index) <- Some closed;
      Some (t.breaker_names.(index), closed)
    end
    else None
  end
  else None

(* Poll aggregation, matching the Modbus proxy: one DNP3 response's worth
   of changes rides one Batch op; a single change keeps the plain Status
   path. *)
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

(* Scaled-integer dead band: changes smaller than this are measurement
   jitter, not worth an ordered update. *)
let analog_deadband = 2

(* Pair the polled analog image with its point names, run the (normally
   absent) rewrite hook, dead-band against the last submitted values and
   ship the changed readings as one Telemetry op under the next batch
   cursor. *)
let handle_analog_data t values =
  let n = Array.length t.analog_names in
  let readings = List.filteri (fun i _ -> i < n) values in
  let readings = List.mapi (fun i v -> (t.analog_names.(i), v)) readings in
  let readings =
    match t.analog_rewrite with Some rewrite -> rewrite readings | None -> readings
  in
  let changed = ref [] in
  List.iter
    (fun (pt, v) ->
      match point_of_analog t pt with
      | Some i ->
          let report =
            match t.last_analog.(i) with
            | None -> true
            | Some prev -> abs (v - prev) >= analog_deadband
          in
          if report then begin
            t.last_analog.(i) <- Some v;
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

let handle_dnp3_response t bytes =
  match Plc.Dnp3.decode_response bytes with
  | { Plc.Dnp3.body = Plc.Dnp3.Events events; _ } ->
      if events <> [] then begin
        (* Apply in device-time order; only the newest state per point
           matters for the report, and [note_change] keeps exactly the
           transitions. *)
        let changes =
          List.rev
            (List.fold_left
               (fun acc (e : Plc.Dnp3.event) ->
                 match note_change t ~index:e.Plc.Dnp3.ev_index ~closed:e.Plc.Dnp3.ev_closed with
                 | Some change -> change :: acc
                 | None -> acc)
               [] events)
        in
        submit_changes t changes;
        send_dnp3 t Plc.Dnp3.Clear_events
      end
  | { Plc.Dnp3.body = Plc.Dnp3.Static_data bits; _ } ->
      let changes = ref [] in
      List.iteri
        (fun index closed ->
          match note_change t ~index ~closed with
          | Some change -> changes := change :: !changes
          | None -> ())
        bits;
      submit_changes t (List.rev !changes)
  | { Plc.Dnp3.body = Plc.Dnp3.Analog_data values; _ } -> handle_analog_data t values
  | { Plc.Dnp3.body = Plc.Dnp3.Operate_ack { success; _ }; _ } ->
      Sim.Stats.Counter.incr t.counters
        (if success then "operate.acked" else "operate.failed")
  | { Plc.Dnp3.body = Plc.Dnp3.Events_cleared; _ } -> ()
  | exception Plc.Dnp3.Decode_error _ -> Sim.Stats.Counter.incr t.counters "dnp3.garbage"

(* --- replicated-system side ---------------------------------------------------- *)

let handle_breaker_command t ~rep ~exec_seq ~breaker ~close signature =
  let body = Messages.encode_breaker_command ~rep ~exec_seq ~breaker ~close in
  let valid =
    Crypto.Signature.verify t.keystore ~signer:(Prime.Msg.replica_identity rep) body signature
  in
  if not valid then Sim.Stats.Counter.incr t.counters "command.bad_sig"
  else begin
    let key = Printf.sprintf "%d:%s:%b" exec_seq breaker close in
    if Threshold.vote t.command_gate ~key ~voter:rep then begin
      if Obs.Flight.recording Obs.Flight.default then
        Obs.Flight.record Obs.Flight.default ~time:(Sim.Engine.now t.engine)
          ~severity:Obs.Flight.Info ~subsystem:"scada" ~kind:"gate.command"
          (Printf.sprintf "%s: command gate crossed for %s" t.name key);
      match point_of_breaker t breaker with
      | Some index ->
          Sim.Stats.Counter.incr t.counters "command.actuated";
          Obs.Registry.mark_command Obs.Registry.default ~breaker ~close
            ~stage:Obs.Registry.stage_actuate ~time:(Sim.Engine.now t.engine);
          Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"proxy"
            "%s: DNP3 operate %s -> %s" t.name breaker (if close then "closed" else "open");
          (match t.on_actuate with Some h -> h ~key ~breaker ~close | None -> ());
          send_dnp3 t (Plc.Dnp3.Operate { index; close })
      | None -> Sim.Stats.Counter.incr t.counters "command.unknown_breaker"
    end
  end

let handle_payload t payload =
  match payload with
  | Messages.Scada_msg (Messages.Breaker_command { bc_rep; bc_exec_seq; bc_breaker; bc_close; bc_sig })
    ->
      handle_breaker_command t ~rep:bc_rep ~exec_seq:bc_exec_seq ~breaker:bc_breaker
        ~close:bc_close bc_sig
  | Prime.Msg.Prime_msg reply -> Prime.Client.handle_reply t.client reply
  | _ -> ()

let start t ~poll_period =
  Netbase.Host.udp_bind t.host ~port:dnp3_local_port (fun ~src:_ ~dst_port:_ ~size:_ payload ->
      match payload with
      | Plc.Dnp3.Frame bytes -> handle_dnp3_response t bytes
      | _ -> Sim.Stats.Counter.incr t.counters "dnp3.garbage");
  t.timers <-
    [
      Sim.Engine.every t.engine ~period:poll_period (fun () -> event_poll t);
      (* Integrity poll at 20x the event-poll period. *)
      Sim.Engine.every t.engine ~period:(20.0 *. poll_period) (fun () -> integrity_poll t);
    ];
  integrity_poll t

let reset_reporting t =
  Array.fill t.last_known 0 (Array.length t.last_known) None;
  Array.fill t.last_analog 0 (Array.length t.last_analog) None

let stop t =
  List.iter (Sim.Engine.cancel_timer t.engine) t.timers;
  t.timers <- []
