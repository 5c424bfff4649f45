(* MANA: Machine-learning Assisted Network Analyzer.

   Operation mirrors the paper's deployments:
   1. a training phase over a baseline capture (24 h at the red-team
      exercise, 12 h at the plant) builds per-feature Gaussian statistics
      and a k-means model of normal windows;
   2. detection scores each subsequent window by z-score and
      cluster distance, entirely passively;
   3. persistent anomalies raise alerts tagged with the dominant feature,
      giving the operator the situational awareness Section III-C argues
      for. *)

type alert = {
  alert_time : float;
  score : float;
  dominant_feature : string;
  category : string;
}

type model = {
  means : float array;
  stds : float array;
  clusters : Kmeans.t;
  baseline_distance : float; (* typical nearest-centroid distance in training *)
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  features : Features.t;
  mutable model : model option;
  mutable alerts : alert list;
  mutable consecutive : int;
  mutable windows_scored : int;
  mutable last_window_end : float;
  counters : Sim.Stats.Counter.t;
}

(* Seconds of capture per scored window, the anomaly score above which a
   window is anomalous, and the run of anomalous windows that raises an
   alert. *)
let window = 1.0

let threshold = 6.0

let consecutive_required = 2

let create ~engine ~trace () =
  {
    engine;
    trace;
    features = Features.create ();
    model = None;
    alerts = [];
    consecutive = 0;
    windows_scored = 0;
    last_window_end = 0.0;
    counters = Sim.Stats.Counter.create ();
  }

let alerts t = List.rev t.alerts

let windows_scored t = t.windows_scored

let is_trained t = t.model <> None

(* Slice a capture into fixed windows and extract features from each. *)
let windows_of_capture t pcap ~t0 ~t1 =
  let rec slice start acc =
    if start >= t1 then List.rev acc
    else
      let records = Netbase.Pcap.window pcap ~t0:start ~t1:(start +. window) in
      slice (start +. window) (Features.extract t.features records :: acc)
  in
  slice t0 []

let train t ~rng pcap ~t0 ~t1 =
  (* Learning mode: flows seen here become the known-baseline set. *)
  let vectors = windows_of_capture t pcap ~t0 ~t1 in
  if vectors = [] then invalid_arg "Detector.train: empty baseline capture";
  Features.freeze t.features;
  let dim = Features.dimensions in
  let n = float_of_int (List.length vectors) in
  let means = Array.make dim 0.0 in
  List.iter (fun v -> Array.iteri (fun i x -> means.(i) <- means.(i) +. x) v) vectors;
  Array.iteri (fun i s -> means.(i) <- s /. n) means;
  let stds = Array.make dim 0.0 in
  List.iter
    (fun v -> Array.iteri (fun i x -> stds.(i) <- stds.(i) +. ((x -. means.(i)) ** 2.0)) v)
    vectors;
  (* Std floor: at least 5% of the feature's mean (constant SCADA traffic
     has near-zero variance) and at least the feature's scale-appropriate
     absolute floor, so z-scores stay comparable across features of very
     different magnitudes. *)
  Array.iteri
    (fun i s ->
      stds.(i) <-
        Float.max
          (Float.max Features.std_floors.(i) (0.05 *. Float.abs means.(i)))
          (sqrt (s /. n)))
    stds;
  let normalize v = Array.mapi (fun i x -> (x -. means.(i)) /. stds.(i)) v in
  let normalized = List.map normalize vectors in
  let clusters = Kmeans.train ~rng ~k:4 ~iterations:10 normalized in
  let baseline_distance =
    let total = List.fold_left (fun acc v -> acc +. Kmeans.distance clusters v) 0.0 normalized in
    Float.max 0.5 (total /. n)
  in
  t.model <- Some { means; stds; clusters; baseline_distance };
  t.last_window_end <- t1;
  Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) ~category:"mana"
    "trained on %d windows (%d baseline flows)" (List.length vectors)
    (Features.known_flow_count t.features)

(* Category heuristics: name the attack family from the dominant feature,
   as the situational awareness board does for the plant engineers. *)
let categorize feature =
  match feature with
  | "arp_requests" | "arp_replies" | "unsolicited_arp_ratio" -> "arp-anomaly"
  | "max_fanout" | "new_flow_count" -> "scan-or-probe"
  | "total_packets" | "total_bytes" | "max_flow_packets" -> "volume-flood"
  | "flow_count" -> "new-communication-pattern"
  | _ -> "anomaly"

(* Several features spike together under most attacks (a port scan also
   raises packet counts); among the comparably-dominant features, prefer
   the most *specific* signal so the alert names the attack family. *)
let specificity feature =
  match feature with
  | "unsolicited_arp_ratio" -> 6
  | "arp_requests" | "arp_replies" -> 5
  | "max_fanout" -> 4
  | "new_flow_count" -> 3
  | "max_flow_packets" -> 2
  | "flow_count" -> 1
  | _ -> 0 (* total_packets, total_bytes, mean_packet_size *)

let score_window model v =
  let z = Array.mapi (fun i x -> Float.abs ((x -. model.means.(i)) /. model.stds.(i))) v in
  let max_z = Array.fold_left Float.max 0.0 z in
  let dominant = ref 0 in
  Array.iteri
    (fun i x ->
      if
        x >= 0.5 *. max_z
        && (z.(!dominant) < 0.5 *. max_z
           || specificity Features.feature_names.(i) > specificity Features.feature_names.(!dominant)
           )
      then dominant := i)
    z;
  let normalized = Array.mapi (fun i x -> (x -. model.means.(i)) /. model.stds.(i)) v in
  let cluster_distance = Kmeans.distance model.clusters normalized /. model.baseline_distance in
  let score = Float.max max_z cluster_distance in
  (score, Features.feature_names.(!dominant))

(* Score the next capture window; raises alerts on persistent anomalies. *)
let evaluate t pcap =
  match t.model with
  | None -> invalid_arg "Detector.evaluate: not trained"
  | Some model ->
      let t0 = t.last_window_end in
      let t1 = t0 +. window in
      t.last_window_end <- t1;
      let records = Netbase.Pcap.window pcap ~t0 ~t1 in
      let v = Features.extract t.features records in
      let score, dominant = score_window model v in
      t.windows_scored <- t.windows_scored + 1;
      Sim.Stats.Counter.incr t.counters "windows";
      if score > threshold then begin
        t.consecutive <- t.consecutive + 1;
        if t.consecutive >= consecutive_required then begin
          let category = categorize dominant in
          let alert =
            { alert_time = Sim.Engine.now t.engine; score; dominant_feature = dominant; category }
          in
          t.alerts <- alert :: t.alerts;
          Sim.Stats.Counter.incr t.counters "alerts";
          Sim.Stats.Counter.incr t.counters ("alert." ^ category);
          Sim.Trace.record t.trace ~time:alert.alert_time ~category:"mana"
            "ALERT %s (score %.1f, feature %s)" category score dominant
        end
      end
      else t.consecutive <- 0

(* Run detection continuously against a live capture. *)
let start t pcap =
  t.last_window_end <- Sim.Engine.now t.engine;
  Sim.Engine.every t.engine ~period:window (fun () -> evaluate t pcap)

let alert_categories t =
  List.sort_uniq String.compare (List.map (fun a -> a.category) (alerts t))
