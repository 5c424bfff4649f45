(* The metrics the benchmark prints, with their units, and the result
   line built from a set of runs. BENCHMARK.json at the repository root
   lists the same names; the smoke test holds the two together. *)

let end_to_end =
  [
    ("flip_hmi_p50_ms", "ms");
    ("flip_hmi_p99_ms", "ms");
    ("flip_hmi_on_time_pct", "%");
    ("applied_updates_per_s", "1/s");
    ("cpu_us_per_update", "us");
    ("alloc_words_per_update", "words");
    ("wire_bytes_per_update", "B");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  List.map (fun l -> (l ^ ".self_cpu_pct", "%")) (Layers.all @ [ "other" ])
  @ [
      ("crypto.from_spines_pct", "%");
      ("crypto.from_prime_pct", "%");
      ("crypto.from_scada_pct", "%");
      ("crypto.signs_per_update", "count");
      ("crypto.verifies_per_update", "count");
      ("crypto.sigcache_hit_pct", "%");
      ("sim.events_per_update", "count");
      ("netbase.frames_per_update", "count");
      ("netbase.backlog_drops_per_update", "count");
      ("netbase.capture_records_per_update", "count");
      ("spines.link_tx_per_update", "count");
      ("spines.dedup_drops_per_update", "count");
      ("spines.route_dijkstra_per_update", "count");
      ("prime.batch_msgs_per_flush", "count");
      ("prime.retransmits_per_update", "count");
      ("prime.view_changes", "count");
      ("prime.view_change_ms", "ms");
      ("scada.updates_per_batch", "count");
      ("scada.telemetry_ops_per_s", "1/s");
      ("store.wal_appends_per_update", "count");
      ("store.fsyncs_per_update", "count");
      ("store.checkpoints", "count");
      ("store.recovery_ms", "ms");
      ("power.solves_per_update", "count");
      ("power.toggle_us", "us");
      ("estimator.sweep_us", "us");
      ("estimator.observable_pct", "%");
      ("grid.overview_us", "us");
      ("grid.overview_agreed_pct", "%");
      ("obs.eval_us", "us");
      ("obs.flight_events_per_update", "count");
      ("runtime.minor_gcs_per_1k_updates", "count");
      ("runtime.promoted_words_per_update", "words");
      ("stage.poll_ms", "ms");
      ("stage.overlay_ms", "ms");
      ("stage.preorder_ms", "ms");
      ("stage.order_exec_ms", "ms");
      ("stage.hmi_ms", "ms");
      ("stage.flip_to_apply_p50_ms", "ms");
      ("stage.flip_to_apply_p99_ms", "ms");
      ("stage.apply_to_hmi_p50_ms", "ms");
      ("stage.apply_to_hmi_p99_ms", "ms");
      ("trace.samples", "count");
      ("trace.overhead_pct", "%");
    ]

(* Values that may differ between a traced run and an untraced one of
   the same seed: the profiler and observers allocate. *)
let traced_may_differ = [ "alloc_words_per_update"; "peak_heap_mb" ]

(* Every exact value of [b] must equal [a]'s, bit for bit. *)
let determinism_failures ?(except = []) ~label (a : Outcome.t) (b : Outcome.t) =
  List.filter_map
    (fun (name, v, exact) ->
      if (not exact) || List.mem name except then None
      else
        match Outcome.find a name with
        | Some w when Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w) -> None
        | w ->
            Some
              (Printf.sprintf "%s: %s is %h, the first run had %s" label name v
                 (match w with Some w -> Printf.sprintf "%h" w | None -> "none")))
    (Outcome.rows b)

let median_of runs name =
  Percentile.median (List.filter_map (fun o -> Outcome.find o name) runs)

(* The per-layer value of a traced run; a metric the workload does not
   exercise (no view change on a fault-free plant, no estimator on
   grid-steady) reads 0. *)
let layer_value traced name = Option.value ~default:0.0 (Outcome.find traced name)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
