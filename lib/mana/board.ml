(* Situational awareness board.

   "Network activity is monitored from a situational awareness board
   tailored for power plant engineers and can be viewed as part of the
   HMI" (Section II). The board aggregates each monitored network's
   detector into an at-a-glance status: per-category alert counts, the
   most recent alerts, and a green/amber/red condition derived from alert
   recency. *)

type network = { net_name : string; detector : Detector.t }

type condition = Normal | Elevated | Critical

type t = {
  engine : Sim.Engine.t;
  mutable networks : network list;
}

(* Seconds within which an alert raises the condition. *)
let elevated_window = 60.0

let create ~engine () = { engine; networks = [] }

let add_network t ~name detector =
  t.networks <- t.networks @ [ { net_name = name; detector } ]

let recent_alerts t detector =
  let now = Sim.Engine.now t.engine in
  List.filter
    (fun a -> now -. a.Detector.alert_time <= elevated_window)
    (Detector.alerts detector)

let condition_of t detector =
  match recent_alerts t detector with
  | [] -> Normal
  | recent when List.length recent < 3 -> Elevated
  | _ -> Critical

let condition_to_string = function
  | Normal -> "NORMAL"
  | Elevated -> "ELEVATED"
  | Critical -> "CRITICAL"

(* Overall plant condition: the worst of the networks. *)
let overall t =
  List.fold_left
    (fun acc n ->
      match (acc, condition_of t n.detector) with
      | Critical, _ | _, Critical -> Critical
      | Elevated, _ | _, Elevated -> Elevated
      | Normal, Normal -> Normal)
    Normal t.networks

let category_counts detector =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace counts a.Detector.category
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.Detector.category)))
    (Detector.alerts detector);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare

(* Text rendering for the engineers' display. *)
let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "==== MANA situational awareness ==== t=%.1f s  condition: %s\n"
       (Sim.Engine.now t.engine)
       (condition_to_string (overall t)));
  List.iter
    (fun n ->
      let det = n.detector in
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %-9s windows=%d alerts=%d\n" n.net_name
           (condition_to_string (condition_of t det))
           (Detector.windows_scored det)
           (List.length (Detector.alerts det)));
      List.iter
        (fun (category, count) ->
          Buffer.add_string buf (Printf.sprintf "      %-28s %d\n" category count))
        (category_counts det);
      match recent_alerts t det with
      | [] -> ()
      | recent ->
          let latest = List.nth recent (List.length recent - 1) in
          Buffer.add_string buf
            (Printf.sprintf "      latest: %s (score %.1f) at t=%.1f s\n"
               latest.Detector.category latest.Detector.score latest.Detector.alert_time))
    t.networks;
  Buffer.contents buf
