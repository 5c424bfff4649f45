(* Telemetry registry: named counters, gauges, fixed-bucket histograms,
   and the span store, behind one [enabled] switch.

   The switch is the whole design: every record function first checks
   [enabled] and returns — a single load and branch — so the instrumented
   protocol hot paths cost nothing measurable when telemetry is off.
   Instrumentation is purely passive (no engine events, no RNG draws, no
   message changes), so a disabled registry leaves the deterministic
   schedule bit-identical to an uninstrumented build.

   [default] is the global registry the stack records into; benches and
   tests can also create private registries. *)

(* The standard SCADA pipeline stages, in causal order. *)
let stage_flip = "flip"
let stage_report = "proxy.report"
let stage_accept = "prime.accept"
let stage_preorder = "prime.preorder"
let stage_execute = "prime.execute"
let stage_push = "master.push"
let stage_repaint = "hmi.repaint"
let stage_command = "hmi.command"
let stage_actuate = "proxy.actuate"

let pipeline_opens = [ stage_flip; stage_command ]

let pipeline_closes = [ stage_repaint; stage_actuate ]

type t = {
  mutable enabled : bool;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  spans : Span.store;
}

let create ?span_capacity ?(opens = pipeline_opens) ?(closes = pipeline_closes) () =
  {
    enabled = false;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    spans = Span.create_store ?capacity:span_capacity ~opens ~closes ();
  }

let default = create ()

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

(* Recording — all early-return when disabled. *)

let incr ?(by = 1) t name =
  if t.enabled then
    match Hashtbl.find t.counters name with
    | r -> r := !r + by
    | exception Not_found -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name value =
  if t.enabled then
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := value
    | None -> Hashtbl.replace t.gauges name (ref value)

let observe ?edges t name value =
  if t.enabled then begin
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          let h = Histogram.create ?edges () in
          Hashtbl.replace t.histograms name h;
          h
    in
    Histogram.observe h value
  end

let mark t ~trace ~stage ~time = if t.enabled then Span.mark t.spans ~trace ~stage ~time

let span_start t ~name ?parent ~time () =
  if t.enabled then Span.start t.spans ~name ?parent ~time () else 0

let span_finish t id ~time = if t.enabled then Span.finish t.spans id ~time

(* Reading *)

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let histogram t name = Hashtbl.find_opt t.histograms name

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans t = t.spans

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms;
  Span.reset t.spans

(* Run [f] with [t] enabled, restoring the previous state and returning
   [f]'s result. The registry is reset on entry so the window observes
   only its own events. *)
let with_enabled t f =
  let previous = t.enabled in
  reset t;
  t.enabled <- true;
  Fun.protect ~finally:(fun () -> t.enabled <- previous) f
