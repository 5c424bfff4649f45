(* Smoke test for the benchmark: the percentile rule, the frame -> layer
   map, and every workload at toy size, traced, with every metric that
   BENCHMARK.json names emitted as a finite number. *)

open Benchmark

let failures = ref 0

let expect ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let percentile_rule () =
  expect (Percentile.tail 1000 = 99.0) "p99 at 1 000 samples";
  expect (Percentile.tail 5000 = 99.0) "never beyond p99";
  expect (Percentile.tail 999 = 98.0) "999 samples only support p98";
  expect (Percentile.tail 200 = 95.0) "200 samples support p95 (10 beyond it)";
  expect (Percentile.tail 100 = 90.0) "100 samples support p90";
  expect (Percentile.tail 15 = 50.0) "tiny samples fall back to the median";
  let a = Percentile.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  expect (Percentile.nearest_rank a 50.0 = 50.0) "nearest-rank p50 of 1..100";
  expect (Percentile.nearest_rank a 90.0 = 90.0) "nearest-rank p90 of 1..100";
  let missed = Percentile.sorted [ 1.0; infinity; 2.0 ] in
  expect (Percentile.nearest_rank missed 100.0 = infinity) "a missed sample ranks last"

let layer_map () =
  let is frames layer = Layers.attribute frames = layer in
  expect (is [ "Prime__Replica.handle_message" ] "prime") "Prime__Replica -> prime";
  expect
    (is [ "Stdlib__Hashtbl.find"; "Spines__Node.forward" ] "spines")
    "Stdlib__Hashtbl under Spines__Node -> spines";
  expect (is [ "Wire.r_int"; "Prime__Msg.decode" ] "wire") "Wire -> wire";
  expect
    (is [ "Benchmark__Workloads.tap"; "Netbase__Switch.inject" ] "netbase")
    "benchmark frames are skipped";
  expect (is [ "Mana__Kmeans.fit" ] "other") "a library outside the layers is other";
  expect (is [ "Stdlib__List.iter"; "Dune__exe__Main.parent" ] "other") "no library frame is other";
  expect
    (Layers.crypto_caller [ "Crypto__Sha256.digest"; "Crypto__Hmac.mac"; "Spines__Node.send" ]
    = Some "spines")
    "crypto is charged to its first non-crypto caller"

let benchmark_json_names () =
  let doc = Obs.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let names key =
    match Obs.Json.member key doc with
    | Some (Obs.Json.List l) ->
        List.filter_map (fun m -> Option.bind (Obs.Json.member "name" m) Obs.Json.str) l
    | _ -> []
  in
  (names "end_to_end", names "per_layer", names "workloads")

let workloads_at_toy_size ~e2e ~layers ~workloads =
  expect
    (List.sort compare workloads = List.sort compare (List.map (fun w -> w.Workloads.name) Workloads.all))
    "BENCHMARK.json lists exactly the workloads";
  List.iter
    (fun w ->
      let t0 = Sys.time () in
      let out = w.Workloads.run Workloads.Toy ~seed:7 ~traced:true in
      Printf.printf "%-16s toy run %.2f s CPU\n" w.Workloads.name (Sys.time () -. t0);
      List.iter (fun f -> expect false (w.Workloads.name ^ ": " ^ f)) (Outcome.failures out);
      List.iter
        (fun name ->
          match Outcome.find out name with
          | Some v -> expect (Float.is_finite v) (w.Workloads.name ^ ": " ^ name ^ " is not finite")
          | None -> expect false (w.Workloads.name ^ ": " ^ name ^ " is not emitted"))
        e2e;
      List.iter
        (fun name ->
          expect
            (Float.is_finite (Report.layer_value out name))
            (w.Workloads.name ^ ": " ^ name ^ " is not finite"))
        layers)
    Workloads.all

let () =
  percentile_rule ();
  layer_map ();
  let e2e, layers, workloads = benchmark_json_names () in
  expect (e2e = List.map fst Report.end_to_end) "BENCHMARK.json end_to_end = Report.end_to_end";
  expect (layers = List.map fst Report.per_layer) "BENCHMARK.json per_layer = Report.per_layer";
  workloads_at_toy_size ~e2e ~layers ~workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
