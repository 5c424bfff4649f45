(** Power topology scenarios: the red-team experiment's Fig. 4 topology
    (one physical PLC, seven breakers, four buildings, plus ten emulated
    distribution PLCs) and the power-plant deployment (three real
    breakers plus the distribution and generation scenarios). *)

type plc_spec = {
  plc_name : string;
  breaker_names : string list;
  physical : bool; (* real device behind a proxy wire vs emulated *)
}

type feed = { load_name : string; path : string list (* breakers that must all be closed *) }

type scenario = { scenario_name : string; plcs : plc_spec list; feeds : feed list }

(** The 2017 red-team topology: MAIN (7 breakers) + 10 distribution PLCs. *)
val red_team : scenario

(** The 2018 plant topology: PLANT (B10-1, B57, B56) + 10 distribution +
    6 generation PLCs. *)
val power_plant : scenario

(** Breakers per emulated substation PLC of {!synthetic} (20). *)
val per_site : int

(** Synthetic scale-out topology: [devices] breakers over emulated
    substation PLCs of [per_site] breakers each, one feed per site.
    Deterministic in [devices]. *)
val synthetic : devices:int -> unit -> scenario

val all_breakers : scenario -> string list

val total_breakers : scenario -> int

(** Which loads are energized given the closed-breaker predicate. *)
val energized : scenario -> is_closed:(string -> bool) -> (string * bool) list

val find_plc : scenario -> string -> plc_spec option
