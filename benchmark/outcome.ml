(* What one run of a workload produced: named values and failed output
   checks. A value marked [exact] is a pure function of the seed (virtual
   time, counts, allocation, wire bytes), so every same-seed run must
   repeat it bit for bit. Runs travel from child to parent process as
   lines, floats in hex so nothing is lost. *)

type t = { mutable rows : (string * float * bool) list; mutable failures : string list }

let create () = { rows = []; failures = [] }

let exact t name v = t.rows <- (name, v, true) :: t.rows

let measured t name v = t.rows <- (name, v, false) :: t.rows

let check t ok msg = if not ok then t.failures <- msg :: t.failures

let rows t = List.rev t.rows

let failures t = List.rev t.failures

let find t name =
  List.find_map (fun (n, v, _) -> if String.equal n name then Some v else None) t.rows

let to_lines t =
  List.map (fun (n, v, e) -> Printf.sprintf "value %s %h %b" n v e) (rows t)
  @ List.map (fun m -> "fail " ^ m) (failures t)

let of_lines lines =
  let t = create () in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = "fail" ->
          t.failures <- String.sub line (i + 1) (String.length line - i - 1) :: t.failures
      | _ -> (
          match String.split_on_char ' ' line with
          | [ "value"; n; v; e ] -> t.rows <- (n, float_of_string v, bool_of_string e) :: t.rows
          | _ -> ()))
    lines;
  t
