(* Health probes: live subsystem snapshots on demand.

   A probe is a named closure returning (metric, value) pairs — view and
   ARU for a Prime replica, egress occupancy and route-cache hit rate
   for a Spines daemon, WAL and checkpoint-lag figures for the durable
   store, sigcache hit rate for the crypto pipeline. Subsystems register
   a probe at construction time; [sample] polls every registered probe.

   Registration is gated on [enabled] (default off) so ordinary tests
   and benches — which construct thousands of short-lived replicas —
   never accumulate dead closures in the default registry. A harness
   that wants health data (chaos runner, spire_cli monitor, E16)
   enables the registry *before* building its deployment and resets it
   afterwards.

   Sampling is read-only over subsystem state and both probes and their
   metrics are returned in sorted order, so a periodic sampler driven by
   the simulation clock is deterministic and purely passive. *)

type snapshot = (string * float) list

type t = {
  mutable enabled : bool;
  probes : (string, unit -> snapshot) Hashtbl.t;
  mutable label : string option;
      (* suffix appended to registered names ("@s03"): disambiguates
         per-shard instances without touching the name *prefixes* the
         alert rules match on *)
  mutable sorted : (string * (unit -> snapshot)) list option;
      (* cached sorted view; None = dirty. At 1 000+ device scale the
         50 ms sampler must not re-sort the registry every tick. *)
}

let create () = { enabled = false; probes = Hashtbl.create 32; label = None; sorted = None }

let default = create ()

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

let set_label t label = t.label <- label

let with_label t label f =
  let saved = t.label in
  t.label <- Some label;
  Fun.protect ~finally:(fun () -> t.label <- saved) f

let labelled t name = match t.label with None -> name | Some l -> name ^ "@" ^ l

(* Replace semantics: a restarted subsystem re-registers under its name
   and the newest instance wins. *)
let register t ~name f =
  if t.enabled then begin
    Hashtbl.replace t.probes (labelled t name) f;
    t.sorted <- None
  end

let unregister t name =
  Hashtbl.remove t.probes (labelled t name);
  t.sorted <- None

let count t = Hashtbl.length t.probes

let reset t =
  Hashtbl.reset t.probes;
  t.sorted <- None

let sorted_probes t =
  match t.sorted with
  | Some l -> l
  | None ->
      let l =
        Hashtbl.fold (fun name f acc -> (name, f) :: acc) t.probes []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      t.sorted <- Some l;
      l

let sample t =
  List.map
    (fun (name, f) ->
      (name, List.sort (fun (a, _) (b, _) -> String.compare a b) (f ())))
    (sorted_probes t)

let sample_json sample =
  Json.Obj
    (List.map
       (fun (name, metrics) ->
         (name, Json.Obj (List.map (fun (m, v) -> (m, Json.Num v)) metrics)))
       sample)
