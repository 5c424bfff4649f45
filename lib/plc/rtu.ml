(* Remote Terminal Unit speaking DNP3.

   Where the PLC exposes a raw register image that must be polled, the
   RTU buffers *change events* (the DNP3 model): a breaker position
   change becomes a class-1 event the master collects on its next event
   poll, with the original change timestamp. Spire's proxies use this to
   report field changes with the device's own event time rather than the
   poll time.

   Like the PLC, the RTU is unauthenticated by design; Spire keeps it on
   a dedicated wire behind its proxy. *)

(* Buffered change events before the oldest are shed. *)
let event_buffer_limit = 256

type t = {
  name : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  breakers : Breaker.t option array;
  mutable events : Dnp3.event list; (* newest first *)
  mutable events_overflowed : bool;
  mutable analog_source : (unit -> int list) option; (* group-30 analog image *)
  counters : Sim.Stats.Counter.t;
}

let create ~engine ~trace ~name ~n_points () =
  {
    name;
    engine;
    trace;
    breakers = Array.make n_points None;
    events = [];
    events_overflowed = false;
    analog_source = None;
    counters = Sim.Stats.Counter.create ();
  }

let name t = t.name

let counters t = t.counters

let n_points t = Array.length t.breakers

let pending_events t = List.length t.events

let events_overflowed t = t.events_overflowed

let record_event t ~index ~closed =
  if List.length t.events >= event_buffer_limit then begin
    (* Oldest events are shed; the master must fall back to a static read
       (integrity poll) to resynchronise — as real DNP3 masters do. *)
    t.events_overflowed <- true;
    t.events <- { Dnp3.ev_index = index; ev_closed = closed; ev_time = Sim.Engine.now t.engine }
                :: (List.filteri (fun i _ -> i < event_buffer_limit - 1) t.events)
  end
  else
    t.events <-
      { Dnp3.ev_index = index; ev_closed = closed; ev_time = Sim.Engine.now t.engine }
      :: t.events

(* The measurement image is pulled on demand — the physical model owns
   the values; the RTU only samples them at poll time. *)
let set_analog_source t f = t.analog_source <- Some f

let wire_breaker t ~index breaker =
  if index < 0 || index >= Array.length t.breakers then
    invalid_arg "Rtu.wire_breaker: bad point index";
  t.breakers.(index) <- Some breaker;
  (* Every position change becomes a buffered class-1 event. *)
  Breaker.on_change breaker (fun b ->
      Sim.Stats.Counter.incr t.counters "event.recorded";
      record_event t ~index ~closed:(Breaker.is_closed b))

let static_data t =
  List.init (Array.length t.breakers) (fun i ->
      match t.breakers.(i) with Some b -> Breaker.is_closed b | None -> false)

let handle_request t (req : Dnp3.request Dnp3.framed) : Dnp3.response Dnp3.framed =
  Sim.Stats.Counter.incr t.counters "dnp3.request";
  let body =
    match req.Dnp3.body with
    | Dnp3.Read_class { classes } ->
        if List.mem 0 classes then Dnp3.Static_data (static_data t)
        else Dnp3.Events (List.rev t.events)
    | Dnp3.Read_analogs ->
        Dnp3.Analog_data (match t.analog_source with Some f -> f () | None -> [])
    | Dnp3.Operate { index; close } ->
        if index >= 0 && index < Array.length t.breakers then begin
          (match t.breakers.(index) with
          | Some b -> Breaker.command b (if close then Breaker.Closed else Breaker.Open)
          | None -> ());
          Dnp3.Operate_ack { op_index = index; op_close = close; success = t.breakers.(index) <> None }
        end
        else Dnp3.Operate_ack { op_index = index; op_close = close; success = false }
    | Dnp3.Clear_events ->
        t.events <- [];
        t.events_overflowed <- false;
        Dnp3.Events_cleared
  in
  { Dnp3.sequence = req.Dnp3.sequence; body }

(* Serve DNP3 on a host (the RTU's network face, normally a cable). *)
let serve_on t host =
  Netbase.Host.add_service host ~port:Dnp3.tcp_port
    { Netbase.Host.name = "dnp3-outstation"; remote_vuln = None };
  Netbase.Host.udp_bind host ~port:Dnp3.tcp_port (fun ~src ~dst_port:_ ~size:_ payload ->
      match payload with
      | Dnp3.Frame bytes -> (
          match Dnp3.decode_request bytes with
          | req ->
              let resp = Dnp3.encode_response (handle_request t req) in
              Netbase.Host.udp_send host ~dst_ip:src.Netbase.Addr.ip
                ~dst_port:src.Netbase.Addr.port ~src_port:Dnp3.tcp_port
                ~size:(String.length resp) (Dnp3.Frame resp)
          | exception Dnp3.Decode_error _ ->
              Sim.Stats.Counter.incr t.counters "dnp3.garbage")
      | _ -> Sim.Stats.Counter.incr t.counters "dnp3.garbage")
