(* Telemetry export: the `--json` bench output, in which every latency
   summary carries {count, mean, p50, p99, ...} built from
   Sim.Stats.Summary via its own to_json, and the Section-V reaction-time
   decomposition over the registry's pipeline marks. *)

let summary_to_json (s : Sim.Stats.Summary.t) : Json.t =
  (* Stats prints its own JSON (no dependency on us); parse it back into
     the AST rather than duplicating the field logic here. *)
  Json.parse (Sim.Stats.Summary.to_json s)

(* The Section-V reaction-time decomposition: label, from-stage,
   to-stage. Sums telescope to flip -> repaint exactly (each stage ends
   where the next begins on the same virtual clock). *)
let reaction_stages =
  [
    ("proxy poll", Registry.stage_flip, Registry.stage_report);
    ("overlay + accept", Registry.stage_report, Registry.stage_accept);
    ("pre-order", Registry.stage_accept, Registry.stage_preorder);
    ("order + execute", Registry.stage_preorder, Registry.stage_execute);
    ("HMI delivery", Registry.stage_execute, Registry.stage_repaint);
  ]

let end_to_end_stage = ("end-to-end", Registry.stage_flip, Registry.stage_repaint)

let reaction_breakdown reg =
  Span.stage_breakdown (Registry.spans reg) ~stages:(reaction_stages @ [ end_to_end_stage ])
