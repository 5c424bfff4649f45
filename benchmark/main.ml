(* The canonical benchmark (see README.md).

     dune exec benchmark/main.exe -- --workload grid-steady --seed 18 \
       [--seconds 20] [--trace 0|1]

   The parent process generates no load itself. With --trace 0 it runs
   the workload in fresh child processes, one after another, at least
   three times and until --seconds have passed, checks every run's
   outputs and that same-seed runs agree, and prints the end-to-end
   medians. With --trace 1 it makes one traced run and untraced ones for
   the overhead baseline, and prints the per-layer metrics. The last line
   of stdout is the JSON result. *)

open Benchmark

let min_runs = 3

let max_runs = 15

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let workload_of name = match Workloads.find name with Some w -> w | None -> usage ()

(* --- child: one run, its outcome on stdout -------------------------------- *)

let child name ~seed ~traced =
  let w = workload_of name in
  let out = w.Workloads.run Workloads.Canonical ~seed ~traced in
  List.iter print_endline (Outcome.to_lines out)

(* --- parent --------------------------------------------------------------- *)

(* Where a traced child's runtime keeps its event ring (removed when the
   child exits). *)
let events_dir = ".benchmark-events"

let spawn name ~seed ~traced =
  let args =
    [| Sys.executable_name; "--child"; name; "--seed"; string_of_int seed;
       "--traced"; (if traced then "1" else "0") |]
  in
  let env =
    if traced then Array.append [| "OCAML_RUNTIME_EVENTS_DIR=" ^ events_dir |] (Unix.environment ())
    else Unix.environment ()
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env Sys.executable_name args env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Outcome.of_lines lines
  | _ ->
      Printf.eprintf "benchmark: %s run (seed %d) crashed\n" name seed;
      exit 1

(* Untraced runs until the budget is spent: at least [min_runs], and no
   new run once the average run would overshoot it. *)
let untraced_runs name ~seed ~seconds ~at_least ~started =
  let rec go runs =
    let n = List.length runs in
    let elapsed = Unix.gettimeofday () -. started in
    let next_ends = elapsed +. (elapsed /. float_of_int (max 1 n)) in
    if n < at_least || (n < max_runs && next_ends <= seconds) then
      go (runs @ [ spawn name ~seed ~traced:false ])
    else runs
  in
  go []

let print_table runs =
  match runs with
  | [] -> ()
  | first :: _ ->
      Printf.printf "%-40s %16s %16s %16s\n" "value" "median" "min" "max";
      List.iter
        (fun (name, _, _) ->
          let vs = List.filter_map (fun o -> Outcome.find o name) runs in
          let lo = List.fold_left Float.min infinity vs and hi = List.fold_left Float.max neg_infinity vs in
          Printf.printf "%-40s %16.6g %16.6g %16.6g\n" name (Percentile.median vs) lo hi)
        (Outcome.rows first)

let parent name ~seed ~seconds ~trace =
  ignore (workload_of name);
  let started = Unix.gettimeofday () in
  let traced =
    if trace then begin
      if not (Sys.file_exists events_dir) then Sys.mkdir events_dir 0o755;
      let o = spawn name ~seed ~traced:true in
      (try Sys.rmdir events_dir with Sys_error _ -> ());
      Some o
    end
    else None
  in
  let runs = untraced_runs name ~seed ~seconds ~at_least:(if trace then 1 else min_runs) ~started in
  let first = List.hd runs in
  let failures =
    List.concat_map Outcome.failures (runs @ Option.to_list traced)
    @ List.concat
        (List.mapi
           (fun i o -> Report.determinism_failures ~label:(Printf.sprintf "run %d" (i + 1)) first o)
           runs)
    @
    match traced with
    | Some t -> Report.determinism_failures ~except:Report.traced_may_differ ~label:"traced run" first t
    | None -> []
  in
  Printf.printf "workload %s, seed %d: %d untraced run(s)%s in %.1f s\n" name seed
    (List.length runs)
    (if trace then " and 1 traced" else "")
    (Unix.gettimeofday () -. started);
  print_endline
    "open loop: flips are scheduled in virtual time, so the generator is never late (0 ms)";
  print_table runs;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  let metrics =
    match traced with
    | None ->
        List.map (fun (n, unit) -> (n, unit, Report.median_of runs n)) Report.end_to_end
    | Some t ->
        Printf.printf "traced run:\n";
        print_table [ t ];
        let overhead =
          100.0
          *. (Report.layer_value t "window_cpu_s" /. Report.median_of runs "window_cpu_s" -. 1.0)
        in
        List.map
          (fun (n, unit) ->
            (n, unit, if n = "trace.overhead_pct" then overhead else Report.layer_value t n))
          Report.per_layer
  in
  let total key = List.fold_left (fun acc o -> acc + int_of_float (Option.value ~default:0.0 (Outcome.find o key))) 0 runs in
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.printf "FAILED: %s is not finite\n" n) bad;
  let correct = failures = [] && bad = [] in
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  print_endline
    (Report.result_line ~correct ~attempted:(total "flips.attempted") ~failed:(total "flips.missed")
       metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 18 and seconds = ref 20.0 and trace = ref 0 in
  let child_name = ref "" and traced = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--child" :: v :: rest -> child_name := v; parse rest
    | "--traced" :: v :: rest -> traced := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !child_name <> "" then child !child_name ~seed:!seed ~traced:(!traced = 1)
  else if !workload = "" then usage ()
  else parent !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
