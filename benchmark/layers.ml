(* Which layer a profile frame belongs to.

   Frame names come from [Printexc.Slot.name]: a wrapped library's module
   is [Lib__Module], so "Prime__Replica.handle_message" belongs to prime;
   the single-module [wire] library shows up as "Wire.r_int". The 13 code
   layers are the lib/ libraries the workloads run; the 14th, runtime, is
   the OCaml GC, which samples cannot see (see [Profiler]). *)

let code_layers =
  [ "sim"; "netbase"; "spines"; "crypto"; "wire"; "prime"; "scada"; "store"; "plc"; "power";
    "chaos"; "obs"; "spire" ]

let all = code_layers @ [ "runtime" ]

(* lib/ libraries the workloads never enter on purpose; time seen in them
   is charged to "other" rather than skipped. *)
let unlisted_libraries = [ "mana"; "diversity"; "attack" ]

type owner =
  | Layer of string
  | Other  (** a lib/ library that is not a layer *)
  | Skip  (** Stdlib, third-party and benchmark frames: look further out *)

let rec double_underscore s i =
  if i + 1 >= String.length s then None
  else if s.[i] = '_' && s.[i + 1] = '_' then Some i
  else double_underscore s (i + 1)

(* "Prime__Replica.handle" -> "prime"; "Wire.r_int" -> "wire". *)
let library_of_frame name =
  let modname =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  in
  let top =
    match double_underscore modname 0 with Some i -> String.sub modname 0 i | None -> modname
  in
  String.lowercase_ascii top

let classify name =
  let lib = library_of_frame name in
  if List.mem lib code_layers then Layer lib
  else if List.mem lib unlisted_libraries then Other
  else Skip

(* Innermost-first frames: the first one a layer owns takes the sample. *)
let attribute frames =
  let rec go = function
    | [] -> "other"
    | f :: rest -> (
        match classify f with Layer l -> l | Other -> "other" | Skip -> go rest)
  in
  go frames

(* For a crypto sample, the first non-crypto layer further out: who asked
   for the hashing. *)
let crypto_caller frames =
  let rec go = function
    | [] -> None
    | f :: rest -> (
        match classify f with
        | Layer "crypto" | Skip -> go rest
        | Layer l -> Some l
        | Other -> Some "other")
  in
  go frames
