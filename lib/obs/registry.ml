(* Telemetry registry: the pipeline-stage span store behind one
   [enabled] switch.

   The switch is the whole design: every mark first checks [enabled] and
   returns — a single load and branch, before any trace key is built —
   so the instrumented protocol hot paths cost nothing measurable when
   telemetry is off. Instrumentation is purely passive (no engine events,
   no RNG draws, no message changes), so a disabled registry leaves the
   deterministic schedule bit-identical to an uninstrumented build.

   Counts live in each subsystem's [Sim.Stats.Counter] fields, live
   figures in [Probe], events in [Flight]; the registry records only
   the marks the reaction-time decomposition reads.

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

type t = { mutable enabled : bool; spans : Span.store }

(* A flip or an operator command opens a pipeline; the HMI repaint or
   the proxy actuation closes it. *)
let create () =
  {
    enabled = false;
    spans =
      Span.create_store ~opens:[ stage_flip; stage_command ] ~closes:[ stage_repaint; stage_actuate ]
        ();
  }

let default = create ()

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

let mark t ~trace ~stage ~time = if t.enabled then Span.mark t.spans ~trace ~stage ~time

let mark_status t ~breaker ~closed ~stage ~time =
  if t.enabled then Span.mark t.spans ~trace:(Span.status_key ~breaker ~closed) ~stage ~time

let mark_command t ~breaker ~close ~stage ~time =
  if t.enabled then Span.mark t.spans ~trace:(Span.command_key ~breaker ~close) ~stage ~time

let spans t = t.spans

let reset t = Span.reset t.spans

(* Run [f] with [t] enabled, restoring the previous state and returning
   [f]'s result. The registry is reset on entry so the window observes
   only its own events. *)
let with_enabled t f =
  let previous = t.enabled in
  reset t;
  t.enabled <- true;
  Fun.protect ~finally:(fun () -> t.enabled <- previous) f
