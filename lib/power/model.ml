(* Electrical overlay derived deterministically from a Plc.Power.scenario.

   The derivation rule is uniform across the red-team, power-plant and
   synthetic topologies:

   - Bus 0 ("grid") is the transmission interface and system slack; a
     reference generator sized from the total demand attaches there.
   - Every feed whose [load_name] ends in "-unit" is a generation unit:
     it injects at the grid bus and is gated by its path breakers (all
     must be closed for the unit to be on line).
   - Every other feed is a load. Its breaker path becomes a chain of
     buses (one per breaker, shared across feeds with a common prefix,
     so Building-A and Building-B share the B10-1 bus) with one gated
     line per hop; the load attaches at the final bus with a
     deterministic demand of 4 + (index mod 3) MW.
   - Consecutive load buses are joined by breaker-less tie lines (a
     ring once there are three or more), modelling the distribution
     mesh. Ties have no breaker: they can only trip electrically, on
     thermal overload, which is what lets an opened feeder re-route
     flow and push a neighbour past its limit.

   The DC solve is a per-island reduced-Laplacian linear system solved
   by dense Gaussian elimination with partial pivoting — branch-free
   and allocation-deterministic, so same-input solves are bit-identical. *)

type bus = { bus_index : int; bus_name : string }

type line = {
  line_index : int;
  line_name : string; (* breaker name for feeders, "tie.N" for ties *)
  from_bus : int;
  to_bus : int;
  reactance : float;
  limit_mw : float;
  gate : string option; (* gating breaker; None = tie (trips electrically only) *)
}

type unit_gen = {
  gen_index : int;
  gen_name : string;
  gen_bus : int;
  capacity_mw : float;
  gen_gate : string list; (* breakers that must all be closed *)
}

type load = {
  load_index : int;
  load_name : string;
  load_bus : int;
  demand_mw : float;
}

type t = {
  scenario : Plc.Power.scenario;
  buses : bus array;
  lines : line array;
  gens : unit_gen array;
  loads : load array;
  line_owner : string array; (* per line: owning PLC *)
  load_owner : string array; (* per load: owning PLC *)
  nominal_hz : float;
  relevant : (string, unit) Hashtbl.t; (* breakers that gate a line or a unit *)
}

let nominal_hz = 60.0
let feeder_reactance = 0.1
let tie_reactance = 0.2
let feeder_limit_mw = 30.0
let tie_limit_mw = 6.0
let unit_capacity_mw = 10.0

let is_unit_feed (f : Plc.Power.feed) =
  let n = f.load_name and suffix = "-unit" in
  let ln = String.length n and ls = String.length suffix in
  ln >= ls && String.sub n (ln - ls) ls = suffix

(* PLC owning a breaker name; the scenario guarantees every path breaker
   belongs to exactly one spec. *)
let owner_of_breaker (scenario : Plc.Power.scenario) breaker =
  match
    List.find_opt (fun (p : Plc.Power.plc_spec) -> List.mem breaker p.breaker_names) scenario.plcs
  with
  | Some p -> p.plc_name
  | None -> "?"

let of_scenario (scenario : Plc.Power.scenario) =
  let buses = ref [ { bus_index = 0; bus_name = "grid" } ] in
  let n_buses = ref 1 in
  let bus_of_breaker : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let intern_bus breaker =
    match Hashtbl.find_opt bus_of_breaker breaker with
    | Some b -> b
    | None ->
        let b = !n_buses in
        incr n_buses;
        buses := { bus_index = b; bus_name = breaker } :: !buses;
        Hashtbl.add bus_of_breaker breaker b;
        b
  in
  let lines = ref [] and n_lines = ref 0 in
  let line_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let add_line ~name ~from_bus ~to_bus ~reactance ~limit ~gate =
    if not (Hashtbl.mem line_seen (from_bus, to_bus)) then begin
      Hashtbl.add line_seen (from_bus, to_bus) ();
      lines :=
        {
          line_index = !n_lines;
          line_name = name;
          from_bus;
          to_bus;
          reactance;
          limit_mw = limit;
          gate;
        }
        :: !lines;
      incr n_lines
    end
  in
  let gens = ref [] and n_gens = ref 0 in
  let loads = ref [] and n_loads = ref 0 in
  let load_feeds = List.filter (fun f -> not (is_unit_feed f)) scenario.feeds in
  let unit_feeds = List.filter is_unit_feed scenario.feeds in
  (* Loads first: chains of gated feeder lines ending at the load bus. *)
  List.iter
    (fun (f : Plc.Power.feed) ->
      let last_bus =
        List.fold_left
          (fun prev breaker ->
            let b = intern_bus breaker in
            add_line ~name:breaker ~from_bus:prev ~to_bus:b ~reactance:feeder_reactance
              ~limit:feeder_limit_mw ~gate:(Some breaker);
            b)
          0 f.path
      in
      let idx = !n_loads in
      incr n_loads;
      loads :=
        {
          load_index = idx;
          load_name = f.load_name;
          load_bus = last_bus;
          demand_mw = 4.0 +. float_of_int (idx mod 3);
        }
        :: !loads)
    load_feeds;
  let loads = Array.of_list (List.rev !loads) in
  (* Tie ring between consecutive load buses (single tie for two loads). *)
  let n_loads = Array.length loads in
  let tie_count = ref 0 in
  if n_loads >= 2 then
    for i = 0 to (if n_loads >= 3 then n_loads - 1 else 0) do
      let a = loads.(i).load_bus and b = loads.((i + 1) mod n_loads).load_bus in
      if a <> b then begin
        add_line
          ~name:(Printf.sprintf "tie.%d" !tie_count)
          ~from_bus:a ~to_bus:b ~reactance:tie_reactance ~limit:tie_limit_mw ~gate:None;
        incr tie_count
      end
    done;
  (* Generation units inject at the grid bus, gated by their breakers. *)
  List.iter
    (fun (f : Plc.Power.feed) ->
      let idx = !n_gens in
      incr n_gens;
      gens :=
        {
          gen_index = idx;
          gen_name = f.load_name;
          gen_bus = 0;
          capacity_mw = unit_capacity_mw;
          gen_gate = f.path;
        }
        :: !gens)
    unit_feeds;
  let total_demand = Array.fold_left (fun acc l -> acc +. l.demand_mw) 0.0 loads in
  let unit_capacity = float_of_int (List.length !gens) *. unit_capacity_mw in
  (* The slack reference covers the demand with margin when there are no
     units, and only tops units up when there are — so losing generation
     units produces a real capacity deficit. *)
  let slack_capacity = Float.max 5.0 ((1.15 *. total_demand) -. unit_capacity) in
  let gens =
    Array.of_list
      (List.rev
         ({
            gen_index = !n_gens;
            gen_name = "grid-src";
            gen_bus = 0;
            capacity_mw = slack_capacity;
            gen_gate = [];
          }
         :: !gens))
  in
  let buses = Array.of_list (List.rev !buses) in
  let lines = Array.of_list (List.rev !lines) in
  let load_owner =
    Array.map
      (fun l ->
        match List.find_opt (fun (f : Plc.Power.feed) -> f.load_name = l.load_name) load_feeds with
        | Some { path = first :: _; _ } -> owner_of_breaker scenario first
        | _ -> "?")
      loads
  in
  let line_owner =
    Array.map
      (fun line ->
        match line.gate with
        | Some breaker -> owner_of_breaker scenario breaker
        | None -> (
            (* tie from a load bus: owned by that load's PLC *)
            match Array.find_opt (fun l -> l.load_bus = line.from_bus) loads with
            | Some l -> load_owner.(l.load_index)
            | None -> "?"))
      lines
  in
  let relevant = Hashtbl.create 64 in
  Array.iter (fun line -> match line.gate with Some b -> Hashtbl.replace relevant b () | None -> ()) lines;
  Array.iter (fun g -> List.iter (fun b -> Hashtbl.replace relevant b ()) g.gen_gate) gens;
  { scenario; buses; lines; gens; loads; line_owner; load_owner; nominal_hz; relevant }

let breaker_matters t breaker = Hashtbl.mem t.relevant breaker

let total_demand_mw t = Array.fold_left (fun acc l -> acc +. l.demand_mw) 0.0 t.loads

(* ------------------------------------------------------------------ *)
(* DC solve                                                            *)
(* ------------------------------------------------------------------ *)

type solution = {
  flows_mw : float array; (* per line; 0 when out of service or dead *)
  line_live : bool array; (* effectively in service *)
  served : bool array; (* per load *)
  served_mw : float;
  shed_mw : float;
  gen_mw : float;
  frequency_hz : float;
  island_of_bus : int array;
  n_islands : int;
  overloads : (int * float) list; (* line index, |flow| / limit > 1 *)
}

let freq_droop_hz = 4.0
let overload_threshold = 1.0001

(* Dense Gaussian elimination with partial pivoting; [a] is n x n,
   [b] length n; returns the solution vector (destroys inputs). *)
let gauss_solve a b n =
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    let d = a.(col).(col) in
    if Float.abs d > 1e-12 then
      for r = col + 1 to n - 1 do
        let f = a.(r).(col) /. d in
        if f <> 0.0 then begin
          for c = col to n - 1 do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        end
      done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for c = r + 1 to n - 1 do
      s := !s -. (a.(r).(c) *. x.(c))
    done;
    x.(r) <- (if Float.abs a.(r).(r) > 1e-12 then !s /. a.(r).(r) else 0.0)
  done;
  x

let solve t ~breaker_closed ~line_in_service =
  let nb = Array.length t.buses in
  let nl = Array.length t.lines in
  let line_live =
    Array.map
      (fun line ->
        line_in_service line.line_index
        && match line.gate with Some b -> breaker_closed b | None -> true)
      t.lines
  in
  (* Islands: BFS over live lines, visiting buses in index order. *)
  let adj = Array.make nb [] in
  Array.iteri
    (fun i line ->
      if line_live.(i) then begin
        adj.(line.from_bus) <- line.to_bus :: adj.(line.from_bus);
        adj.(line.to_bus) <- line.from_bus :: adj.(line.to_bus)
      end)
    t.lines;
  let island_of_bus = Array.make nb (-1) in
  let n_islands = ref 0 in
  for b0 = 0 to nb - 1 do
    if island_of_bus.(b0) < 0 then begin
      let id = !n_islands in
      incr n_islands;
      let queue = Queue.create () in
      Queue.add b0 queue;
      island_of_bus.(b0) <- id;
      while not (Queue.is_empty queue) do
        let b = Queue.pop queue in
        List.iter
          (fun b' ->
            if island_of_bus.(b') < 0 then begin
              island_of_bus.(b') <- id;
              Queue.add b' queue
            end)
          adj.(b)
      done
    end
  done;
  let n_islands = !n_islands in
  (* Per-island capacity (gated units) and demand. *)
  let capacity = Array.make n_islands 0.0 in
  Array.iter
    (fun g ->
      if List.for_all breaker_closed g.gen_gate then
        let i = island_of_bus.(g.gen_bus) in
        capacity.(i) <- capacity.(i) +. g.capacity_mw)
    t.gens;
  let demand = Array.make n_islands 0.0 in
  Array.iter
    (fun l ->
      let i = island_of_bus.(l.load_bus) in
      demand.(i) <- demand.(i) +. l.demand_mw)
    t.loads;
  (* Under-frequency load shedding: drop loads (largest demand first,
     highest index breaking ties) until the island balances. Islands
     with no capacity are dark. *)
  let served = Array.make (Array.length t.loads) true in
  let island_served = Array.make n_islands 0.0 in
  for i = 0 to n_islands - 1 do
    if capacity.(i) <= 0.0 then
      Array.iter (fun l -> if island_of_bus.(l.load_bus) = i then served.(l.load_index) <- false) t.loads
    else if demand.(i) > capacity.(i) then begin
      let here =
        t.loads |> Array.to_list
        |> List.filter (fun l -> island_of_bus.(l.load_bus) = i)
        |> List.sort (fun a b ->
               match compare b.demand_mw a.demand_mw with
               | 0 -> compare b.load_index a.load_index
               | c -> c)
      in
      let remaining = ref demand.(i) in
      List.iter
        (fun l ->
          if !remaining > capacity.(i) then begin
            served.(l.load_index) <- false;
            remaining := !remaining -. l.demand_mw
          end)
        here
    end
  done;
  Array.iter
    (fun l ->
      if served.(l.load_index) then
        let i = island_of_bus.(l.load_bus) in
        island_served.(i) <- island_served.(i) +. l.demand_mw)
    t.loads;
  (* Frequency: droop sag proportional to each powered island's capacity
     deficit; the system value is the worst powered island. *)
  let frequency_hz = ref t.nominal_hz in
  for i = 0 to n_islands - 1 do
    if capacity.(i) > 0.0 && demand.(i) > capacity.(i) then begin
      let f =
        t.nominal_hz -. (freq_droop_hz *. (demand.(i) -. capacity.(i)) /. capacity.(i))
      in
      let f = Float.max 50.0 f in
      if f < !frequency_hz then frequency_hz := f
    end
  done;
  (* Dispatch: per island, units in index order up to the served load. *)
  let gen_out = Array.make (Array.length t.gens) 0.0 in
  let to_cover = Array.copy island_served in
  Array.iter
    (fun g ->
      if List.for_all breaker_closed g.gen_gate then begin
        let i = island_of_bus.(g.gen_bus) in
        let out = Float.min g.capacity_mw to_cover.(i) in
        if out > 0.0 then begin
          gen_out.(g.gen_index) <- out;
          to_cover.(i) <- to_cover.(i) -. out
        end
      end)
    t.gens;
  (* Net injection per bus. *)
  let inj = Array.make nb 0.0 in
  Array.iter (fun g -> inj.(g.gen_bus) <- inj.(g.gen_bus) +. gen_out.(g.gen_index)) t.gens;
  Array.iter
    (fun l -> if served.(l.load_index) then inj.(l.load_bus) <- inj.(l.load_bus) -. l.demand_mw)
    t.loads;
  (* Per-island DC flow: reduced Laplacian with the island's first
     generating bus as slack. *)
  let theta = Array.make nb 0.0 in
  let slack_of = Array.make n_islands (-1) in
  Array.iter
    (fun g ->
      if gen_out.(g.gen_index) > 0.0 || List.for_all breaker_closed g.gen_gate then begin
        let i = island_of_bus.(g.gen_bus) in
        if slack_of.(i) < 0 then slack_of.(i) <- g.gen_bus
      end)
    t.gens;
  for i = 0 to n_islands - 1 do
    if slack_of.(i) >= 0 && capacity.(i) > 0.0 then begin
      (* island buses except the slack, in index order *)
      let members = ref [] in
      for b = nb - 1 downto 0 do
        if island_of_bus.(b) = i && b <> slack_of.(i) then members := b :: !members
      done;
      let members = Array.of_list !members in
      let n = Array.length members in
      if n > 0 then begin
        let pos = Array.make nb (-1) in
        Array.iteri (fun k b -> pos.(b) <- k) members;
        let a = Array.init n (fun _ -> Array.make n 0.0) in
        let rhs = Array.make n 0.0 in
        Array.iteri
          (fun li line ->
            if line_live.(li) && island_of_bus.(line.from_bus) = i then begin
              let y = 1.0 /. line.reactance in
              let pf = pos.(line.from_bus) and pt = pos.(line.to_bus) in
              if pf >= 0 then a.(pf).(pf) <- a.(pf).(pf) +. y;
              if pt >= 0 then a.(pt).(pt) <- a.(pt).(pt) +. y;
              if pf >= 0 && pt >= 0 then begin
                a.(pf).(pt) <- a.(pf).(pt) -. y;
                a.(pt).(pf) <- a.(pt).(pf) -. y
              end
            end)
          t.lines;
        Array.iteri (fun k b -> rhs.(k) <- inj.(b)) members;
        let x = gauss_solve a rhs n in
        Array.iteri (fun k b -> theta.(b) <- x.(k)) members
      end
    end
  done;
  let flows_mw =
    Array.mapi
      (fun li line ->
        if line_live.(li) && capacity.(island_of_bus.(line.from_bus)) > 0.0 then
          (theta.(line.from_bus) -. theta.(line.to_bus)) /. line.reactance
        else 0.0)
      t.lines
  in
  let overloads = ref [] in
  for li = nl - 1 downto 0 do
    let r = Float.abs flows_mw.(li) /. t.lines.(li).limit_mw in
    if line_live.(li) && r > overload_threshold then overloads := (li, r) :: !overloads
  done;
  let served_mw = Array.fold_left ( +. ) 0.0 island_served in
  let gen_mw = Array.fold_left ( +. ) 0.0 gen_out in
  let total = total_demand_mw t in
  {
    flows_mw;
    line_live;
    served;
    served_mw;
    shed_mw = total -. served_mw;
    gen_mw;
    frequency_hz = !frequency_hz;
    island_of_bus;
    n_islands;
    overloads = !overloads;
  }

(* ------------------------------------------------------------------ *)
(* Measurement points                                                  *)
(* ------------------------------------------------------------------ *)

type point_kind =
  | Flow of int (* line index; centi-MW *)
  | Tie_status of int (* line index; 0/1 in service *)
  | Injection of int (* load index; centi-MW, negative = consumption *)
  | Frequency (* milli-Hz *)

type point = { pt_name : string; pt_plc : string; pt_kind : point_kind }

let points t =
  let acc = ref [] in
  (* frequency, owned by the first PLC *)
  let first_plc =
    match t.scenario.plcs with p :: _ -> p.plc_name | [] -> "?"
  in
  acc := { pt_name = "hz"; pt_plc = first_plc; pt_kind = Frequency } :: !acc;
  Array.iteri
    (fun li line ->
      acc :=
        { pt_name = "mw." ^ line.line_name; pt_plc = t.line_owner.(li); pt_kind = Flow li }
        :: !acc;
      if line.gate = None then
        acc :=
          { pt_name = "st." ^ line.line_name; pt_plc = t.line_owner.(li); pt_kind = Tie_status li }
          :: !acc)
    t.lines;
  Array.iteri
    (fun i l ->
      acc :=
        { pt_name = "inj." ^ l.load_name; pt_plc = t.load_owner.(i); pt_kind = Injection i }
        :: !acc)
    t.loads;
  Array.of_list (List.rev !acc)

let points_for t ~plc =
  Array.of_list (List.filter (fun p -> p.pt_plc = plc) (Array.to_list (points t)))

let point_names t = List.sort compare (Array.to_list (points t) |> List.map (fun p -> p.pt_name))

let scale_mw f = int_of_float (Float.round (f *. 100.0))
let scale_hz f = int_of_float (Float.round (f *. 1000.0))

let measure t solution point ~tripped =
  match point.pt_kind with
  | Flow li -> scale_mw solution.flows_mw.(li)
  | Tie_status li -> if tripped li then 0 else 1
  | Injection i ->
      let l = t.loads.(i) in
      if solution.served.(i) then scale_mw (-.l.demand_mw) else 0
  | Frequency -> scale_hz solution.frequency_hz
