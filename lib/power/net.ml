(* Co-simulation runtime for the electrical overlay.

   The net mirrors physical breaker positions (via Breaker.on_change
   hooks or explicit set_breaker calls), re-solves the DC flow whenever
   a relevant breaker moves, and runs inverse-time overcurrent
   protection on every line: a line loaded past its thermal limit trips
   after base_delay / (ratio - 1) seconds (clamped), which is what turns
   one forced outage into a staggered, fully deterministic cascade. The
   net never actuates breakers — trips are electrical (a protection
   relay opening the line), so binding the overlay to an existing
   deployment cannot perturb the SCADA-visible breaker state. *)

type t = {
  engine : Sim.Engine.t;
  model : Model.t;
  flight : Obs.Flight.t option;
  closed : (string, bool) Hashtbl.t;
  tripped : bool array;
  pending : (Sim.Engine.event_id * float) option array; (* scheduled trip, deadline *)
  overload_since : float option array;
  mutable solution : Model.solution;
  mutable trip_log : (float * string) list; (* newest first *)
  mutable shed_log : (float * string * float) list; (* newest first *)
  points : Model.point array;
  mutable solves : int;
}

let trip_base_delay = 5.0
let trip_min_delay = 1.0
let trip_max_delay = 30.0

let breaker_closed t name = match Hashtbl.find_opt t.closed name with Some c -> c | None -> true

let record t ~severity ~kind detail =
  match t.flight with
  | Some fl when Obs.Flight.recording fl ->
      Obs.Flight.record fl ~time:(Sim.Engine.now t.engine) ~severity ~subsystem:"power" ~kind
        (detail ())
  | _ -> ()

let trip_delay ratio =
  Float.min trip_max_delay (Float.max trip_min_delay (trip_base_delay /. (ratio -. 1.0)))

let rec recompute t =
  t.solves <- t.solves + 1;
  let prev = t.solution in
  let sol =
    Model.solve t.model ~breaker_closed:(breaker_closed t)
      ~line_in_service:(fun li -> not t.tripped.(li))
  in
  t.solution <- sol;
  let now = Sim.Engine.now t.engine in
  (* Newly shed loads. *)
  Array.iter
    (fun (l : Model.load) ->
      if prev.served.(l.load_index) && not sol.served.(l.load_index) then begin
        t.shed_log <- (now, l.load_name, l.demand_mw) :: t.shed_log;
        record t ~severity:Obs.Flight.Warn ~kind:"island.shed" (fun () ->
            Printf.sprintf "load=%s mw=%.1f" l.load_name l.demand_mw)
      end)
    t.model.loads;
  (* Protection pass: (re)schedule trips for overloaded lines, clear
     timers for lines that recovered. *)
  let overloaded = Array.make (Array.length t.model.lines) 0.0 in
  List.iter (fun (li, r) -> overloaded.(li) <- r) sol.overloads;
  Array.iteri
    (fun li (line : Model.line) ->
      let r = overloaded.(li) in
      if r > 0.0 then begin
        if t.overload_since.(li) = None then t.overload_since.(li) <- Some now;
        let deadline = now +. trip_delay r in
        let stale =
          match t.pending.(li) with
          | Some (_, d) -> Float.abs (d -. deadline) > 1e-9
          | None -> true
        in
        if stale then begin
          (match t.pending.(li) with
          | Some (ev, _) -> Sim.Engine.cancel t.engine ev
          | None -> ());
          let ev =
            Sim.Engine.schedule_at t.engine ~time:deadline (fun () -> trip t li)
          in
          t.pending.(li) <- Some (ev, deadline)
        end
      end
      else begin
        t.overload_since.(li) <- None;
        match t.pending.(li) with
        | Some (ev, _) ->
            Sim.Engine.cancel t.engine ev;
            t.pending.(li) <- None
        | None -> ()
      end;
      ignore line)
    t.model.lines

and trip t li =
  if not t.tripped.(li) then begin
    t.tripped.(li) <- true;
    t.pending.(li) <- None;
    t.overload_since.(li) <- None;
    let line = t.model.lines.(li) in
    let now = Sim.Engine.now t.engine in
    t.trip_log <- (now, line.line_name) :: t.trip_log;
    record t ~severity:Obs.Flight.Warn ~kind:"line.trip" (fun () ->
        Printf.sprintf "line=%s flow=%.2f limit=%.1f" line.line_name
          t.solution.flows_mw.(li) line.limit_mw);
    recompute t
  end

let set_breaker t name ~closed =
  let prev = breaker_closed t name in
  Hashtbl.replace t.closed name closed;
  if prev <> closed && Model.breaker_matters t.model name then recompute t

let bind_breaker t breaker =
  Hashtbl.replace t.closed (Plc.Breaker.name breaker) (Plc.Breaker.is_closed breaker);
  Plc.Breaker.on_change breaker (fun b ->
      set_breaker t (Plc.Breaker.name b) ~closed:(Plc.Breaker.is_closed b))

let create ?flight ~engine model =
  let nl = Array.length model.Model.lines in
  let t =
    {
      engine;
      model;
      flight;
      closed = Hashtbl.create 64;
      tripped = Array.make nl false;
      pending = Array.make nl None;
      overload_since = Array.make nl None;
      solution =
        Model.solve model ~breaker_closed:(fun _ -> true) ~line_in_service:(fun _ -> true);
      trip_log = [];
      shed_log = [];
      points = Model.points model;
      solves = 1;
    }
  in
  recompute t;
  t

let model t = t.model
let solution t = t.solution
let frequency_hz t = t.solution.frequency_hz
let served_mw t = t.solution.served_mw
let shed_mw t = t.solution.shed_mw
let solves t = t.solves
let total_demand_mw t = Model.total_demand_mw t.model
let tripped_lines t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.tripped

let trip_log t = List.rev t.trip_log
let shed_log t = List.rev t.shed_log

let analogs_for t ~plc =
  let sol = t.solution in
  Array.to_list
    (Array.map
       (fun p -> (p.Model.pt_name, Model.measure t.model sol p ~tripped:(fun li -> t.tripped.(li))))
       (Model.points_for t.model ~plc))

let analog_names_for t ~plc =
  Array.to_list (Array.map (fun p -> p.Model.pt_name) (Model.points_for t.model ~plc))

let all_analogs t =
  let sol = t.solution in
  Array.to_list
    (Array.map
       (fun p -> (p.Model.pt_name, Model.measure t.model sol p ~tripped:(fun li -> t.tripped.(li))))
       t.points)

(* Lines overloaded continuously for longer than the worst-case trip
   delay plus [grace] — protection failures the cascade-containment
   invariant reports. *)
let stuck_overloads t ~grace =
  let now = Sim.Engine.now t.engine in
  let worst = trip_max_delay +. grace in
  let acc = ref [] in
  Array.iteri
    (fun li since ->
      match since with
      | Some s when now -. s > worst -> acc := (t.model.lines.(li).line_name, s) :: !acc
      | _ -> ())
    t.overload_since;
  List.rev !acc

let register_probe t registry =
  Obs.Probe.register registry ~name:"power.grid" (fun () ->
      [
        ("frequency_hz", frequency_hz t);
        ("served_mw", served_mw t);
        ("shed_mw", shed_mw t);
        ("tripped_lines", float_of_int (tripped_lines t));
      ])
