(* Power topology scenarios from the paper.

   - The red-team experiment (Fig. 4): one physical PLC with seven
     breakers managing power to four buildings, plus ten emulated PLCs
     modelling distribution to substations and remote sites.
   - The power-plant deployment: the subset with the three left-side
     breakers of Fig. 4 (B10-1, B57, B56) on a real PLC, the same ten
     distribution PLCs, and six new generation PLCs.

   A building is energized when every breaker on its feed path is
   closed; the HMI renders this and the SCADA master keeps it as part of
   its application state. *)

type plc_spec = {
  plc_name : string;
  breaker_names : string list;
  physical : bool; (* a real device behind a proxy wire vs emulated *)
}

type feed = { load_name : string; path : string list (* breakers that must be closed *) }

type scenario = { scenario_name : string; plcs : plc_spec list; feeds : feed list }

let fig4_breakers = [ "B10-1"; "B57"; "B56"; "B21"; "B33"; "B44"; "B62" ]

let fig4_feeds =
  [
    { load_name = "Building-A"; path = [ "B10-1"; "B57" ] };
    { load_name = "Building-B"; path = [ "B10-1"; "B56" ] };
    { load_name = "Building-C"; path = [ "B21"; "B33" ] };
    { load_name = "Building-D"; path = [ "B44"; "B62" ] };
  ]

let distribution_plcs =
  List.init 10 (fun i ->
      let name = Printf.sprintf "DIST-%02d" (i + 1) in
      {
        plc_name = name;
        breaker_names = List.init 3 (fun j -> Printf.sprintf "%s/B%d" name (j + 1));
        physical = false;
      })

let distribution_feeds =
  List.concat_map
    (fun spec ->
      match spec.breaker_names with
      | first :: _ ->
          [ { load_name = spec.plc_name ^ "-substation"; path = [ first ] } ]
      | [] -> [])
    distribution_plcs

let generation_plcs =
  List.init 6 (fun i ->
      let name = Printf.sprintf "GEN-%d" (i + 1) in
      {
        plc_name = name;
        breaker_names = [ name ^ "/intake"; name ^ "/output" ];
        physical = false;
      })

let generation_feeds =
  List.map
    (fun spec -> { load_name = spec.plc_name ^ "-unit"; path = spec.breaker_names })
    generation_plcs

let red_team =
  {
    scenario_name = "red-team-2017";
    plcs =
      { plc_name = "MAIN"; breaker_names = fig4_breakers; physical = true }
      :: distribution_plcs;
    feeds = fig4_feeds @ distribution_feeds;
  }

let power_plant =
  {
    scenario_name = "power-plant-2018";
    plcs =
      { plc_name = "PLANT"; breaker_names = [ "B10-1"; "B57"; "B56" ]; physical = true }
      :: (distribution_plcs @ generation_plcs);
    feeds =
      [
        { load_name = "Building-A"; path = [ "B10-1"; "B57" ] };
        { load_name = "Building-B"; path = [ "B10-1"; "B56" ] };
      ]
      @ distribution_feeds @ generation_feeds;
  }

(* Breakers per emulated substation PLC of [synthetic]. *)
let per_site = 20

(* Synthetic scale-out topology: [devices] breakers spread over emulated
   substation PLCs of [per_site] breakers each (SUB-000/B00, ...). Each
   site gets one feed through its first breaker, mirroring the
   distribution-substation pattern above. Purely deterministic in
   [devices], so same-parameter runs build identical scenarios. *)
let synthetic ~devices () =
  let sites = (devices + per_site - 1) / per_site in
  let plcs =
    List.init sites (fun s ->
        let name = Printf.sprintf "SUB-%03d" s in
        let here = min per_site (devices - (s * per_site)) in
        {
          plc_name = name;
          breaker_names = List.init here (fun j -> Printf.sprintf "%s/B%02d" name j);
          physical = false;
        })
  in
  let feeds =
    List.concat_map
      (fun spec ->
        match spec.breaker_names with
        | first :: _ -> [ { load_name = spec.plc_name ^ "-substation"; path = [ first ] } ]
        | [] -> [])
      plcs
  in
  { scenario_name = Printf.sprintf "synthetic-%d" devices; plcs; feeds }

let all_breakers scenario = List.concat_map (fun p -> p.breaker_names) scenario.plcs

let total_breakers scenario = List.length (all_breakers scenario)

(* Which loads are energized given the closed-breaker predicate. *)
let energized scenario ~is_closed =
  List.map
    (fun feed -> (feed.load_name, List.for_all is_closed feed.path))
    scenario.feeds

let find_plc scenario name = List.find_opt (fun p -> String.equal p.plc_name name) scenario.plcs
