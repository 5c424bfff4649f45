(* Ethernet switch with optional static MAC-to-port bindings.

   The paper (Section III-B): "On the switch, we configured a static
   mapping of MAC addresses to switch ports" — the step that blocked the
   red team's MAC/ARP spoofing. In [Static] mode a frame whose source MAC
   is bound to a different port is dropped (port security), and unknown
   destinations are dropped rather than flooded.

   Each egress port models serialisation at [bandwidth] with a bounded
   backlog, so volumetric floods can saturate a port and shed traffic. *)

type port_id = int

type mode = Learning | Static

type port = {
  deliver : Packet.frame -> unit;
  mutable next_free : float; (* virtual time when the port finishes its backlog *)
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  name : string;
  mode : mode;
  mutable ports : port array;
  mutable port_count : int;
  mac_table : (Addr.Mac.t, port_id) Hashtbl.t; (* learned or static *)
  mutable taps : (Packet.frame -> unit) list;
  counters : Sim.Stats.Counter.t;
  bandwidth : float; (* bytes per second per port *)
}

(* Seconds of queued serialisation on a port before tail drop. *)
let max_backlog = 0.05

(* Seconds from the end of a frame's serialisation to its delivery. *)
let latency = 5e-6

let create ?(mode = Learning) ?(bandwidth = 125_000_000.0) ~engine ~trace name =
  {
    engine;
    trace;
    name;
    mode;
    ports = [||];
    port_count = 0;
    mac_table = Hashtbl.create 32;
    taps = [];
    counters = Sim.Stats.Counter.create ();
    bandwidth;
  }

let name t = t.name

let counters t = t.counters

let attach t deliver =
  let port = { deliver; next_free = 0.0 } in
  if t.port_count = Array.length t.ports then begin
    let grown = Array.make (max 8 (2 * t.port_count)) port in
    Array.blit t.ports 0 grown 0 t.port_count;
    t.ports <- grown
  end;
  t.ports.(t.port_count) <- port;
  t.port_count <- t.port_count + 1;
  t.port_count - 1

let bind_mac t mac port_id =
  if port_id < 0 || port_id >= t.port_count then invalid_arg "Switch.bind_mac: bad port";
  Hashtbl.replace t.mac_table mac port_id

let add_tap t tap = t.taps <- tap :: t.taps

(* Egress with per-port serialisation and bounded backlog. *)
let send_out t port_id frame =
  let port = t.ports.(port_id) in
  let now = Sim.Engine.now t.engine in
  let start = Float.max now port.next_free in
  if start -. now > max_backlog then begin
    Sim.Stats.Counter.incr t.counters "drop.backlog";
    Sim.Trace.record t.trace ~time:now ~category:"switch"
      "%s: port %d backlog full, dropping %s" t.name port_id (Packet.describe_l3 frame.Packet.l3)
  end
  else begin
    let serialization = float_of_int (Packet.frame_size frame) /. t.bandwidth in
    port.next_free <- start +. serialization;
    let arrival = start +. serialization +. latency in
    ignore (Sim.Engine.schedule_at t.engine ~time:arrival (fun () -> port.deliver frame));
    Sim.Stats.Counter.incr t.counters "tx"
  end

let flood t ~ingress frame =
  for p = 0 to t.port_count - 1 do
    if p <> ingress then send_out t p frame
  done

let inject t ingress (frame : Packet.frame) =
  let now = Sim.Engine.now t.engine in
  Sim.Stats.Counter.incr t.counters "rx";
  (* Port security: in static mode, a source MAC bound elsewhere is spoofed. *)
  let src_ok =
    match (t.mode, Hashtbl.find_opt t.mac_table frame.src_mac) with
    | Static, Some bound when bound <> ingress -> false
    | Static, None -> false (* unknown MACs are not admitted in static mode *)
    | _ -> true
  in
  if not src_ok then begin
    Sim.Stats.Counter.incr t.counters "drop.port_security";
    Sim.Trace.record t.trace ~time:now ~category:"switch"
      "%s: port-security drop on port %d: %a" t.name ingress Packet.pp_frame frame
  end
  else begin
    if t.mode = Learning then Hashtbl.replace t.mac_table frame.src_mac ingress;
    List.iter (fun tap -> tap frame) t.taps;
    if Addr.Mac.is_broadcast frame.dst_mac then flood t ~ingress frame
    else
      match Hashtbl.find_opt t.mac_table frame.dst_mac with
      | Some p when p = ingress -> Sim.Stats.Counter.incr t.counters "drop.hairpin"
      | Some p -> send_out t p frame
      | None -> (
          match t.mode with
          | Learning -> flood t ~ingress frame
          | Static ->
              Sim.Stats.Counter.incr t.counters "drop.unknown_dst";
              Sim.Trace.record t.trace ~time:now ~category:"switch"
                "%s: unknown destination in static mode: %a" t.name Packet.pp_frame frame)
  end
