(* Statistical CPU profile of one measurement window, taken from outside
   the layers.

   An ITIMER_PROF timer raises SIGPROF as the process burns CPU; the
   handler records the OCaml call stack, and each sample's self time goes
   to the layer owning its innermost library frame ([Layers.attribute]).
   OCaml runs signal handlers at its next poll point, so a sample lands
   on the nearest safepoint (safepoint bias) and GC work is charged to
   the allocating frame. The GC's own time is therefore measured
   separately, from the runtime's event ring ([Runtime_events]), and
   reported as the "runtime" layer; the sampled layers share the rest in
   proportion to their samples. *)

type gc = {
  mutable depth : int;
  mutable phase_start : int64;
  mutable gc_ns : int64;
  mutable lost_events : int;
}

type t = {
  mutable stacks : Printexc.raw_backtrace list;
  gc : gc;
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
}

(* [false] when the binary carries no debug info (built without -g): the
   frames could not be named and every sample would be "other". *)
let frames_named () = Printexc.backtrace_slots (Printexc.get_callstack 4) <> None

(* Top-level runtime phases (minor collections, major slices, ...) are
   GC time; nested phases are already inside them. *)
let gc_callbacks gc =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _domain ts _phase ->
      if gc.depth = 0 then gc.phase_start <- Runtime_events.Timestamp.to_int64 ts;
      gc.depth <- gc.depth + 1)
    ~runtime_end:(fun _domain ts _phase ->
      (* A phase already open when the window began ends unmatched. *)
      if gc.depth > 0 then begin
        gc.depth <- gc.depth - 1;
        if gc.depth = 0 then
          gc.gc_ns <-
            Int64.add gc.gc_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) gc.phase_start)
      end)
    ~lost_events:(fun _domain n -> gc.lost_events <- gc.lost_events + n)
    ()

(* The ring holds a few thousand collections: poll at least every few
   hundred milliseconds of CPU. *)
let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

let start () =
  Runtime_events.start ();
  (* A second window in the same process finds the ring paused. *)
  Runtime_events.resume ();
  let gc = { depth = 0; phase_start = 0L; gc_ns = 0L; lost_events = 0 } in
  let t =
    {
      stacks = [];
      gc;
      cursor = Runtime_events.create_cursor None;
      callbacks = gc_callbacks gc;
    }
  in
  (* Events from before the window are not this window's GC time. *)
  poll t;
  gc.gc_ns <- 0L;
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> t.stacks <- Printexc.get_callstack 64 :: t.stacks));
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.001; it_value = 0.001 });
  t

type profile = {
  samples : int;
  gc_seconds : float;
  lost_events : int;
  by_layer : (string * int) list;  (** code layers and "other", sample counts *)
  crypto_callers : (string * int) list;  (** crypto samples by calling layer *)
}

let frame_names bt =
  match Printexc.backtrace_slots bt with
  | None -> []
  | Some slots -> List.filter_map Printexc.Slot.name (Array.to_list slots)

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  poll t;
  Runtime_events.pause ();
  Runtime_events.free_cursor t.cursor;
  let by_layer = Hashtbl.create 16 and callers = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun bt ->
      let frames = frame_names bt in
      let layer = Layers.attribute frames in
      bump by_layer layer;
      if String.equal layer "crypto" then
        Option.iter (bump callers) (Layers.crypto_caller frames))
    t.stacks;
  let counts tbl keys = List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt tbl k))) keys in
  {
    samples = List.length t.stacks;
    gc_seconds = Int64.to_float t.gc.gc_ns /. 1e9;
    lost_events = t.gc.lost_events;
    by_layer = counts by_layer (Layers.code_layers @ [ "other" ]);
    crypto_callers = counts callers [ "spines"; "prime"; "scada" ];
  }
