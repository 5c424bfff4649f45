(* SCADA operations: the application-level payload of replicated updates.

   Three kinds exist in the deployment: field status reports introduced
   by the PLC/RTU proxies, supervisory commands issued from the HMI, and
   aggregated poll reports — one op carrying every position change a
   proxy's polling round observed, so Prime orders one update per poll
   instead of one per device. The string encoding is what gets signed
   inside a Prime update, so it must be canonical and injective. *)

type t =
  | Status of { breaker : string; closed : bool }
  | Command of { breaker : string; close : bool }
  | Batch of { origin : string; cursor : int; reports : (string * bool) list }
  | Telemetry of { origin : string; cursor : int; readings : (string * int) list }

let encode = function
  | Status { breaker; closed } -> Printf.sprintf "status:%s:%d" breaker (if closed then 1 else 0)
  | Command { breaker; close } -> Printf.sprintf "cmd:%s:%d" breaker (if close then 1 else 0)
  | Batch { origin; cursor; reports } ->
      (* Breaker and origin names never contain ':', ',' or '='; the
         per-origin cursor makes two batches from the same origin
         distinct even when they carry identical report lists. *)
      Printf.sprintf "batch:%s:%d:%s" origin cursor
        (String.concat ","
           (List.map (fun (b, closed) -> Printf.sprintf "%s=%d" b (if closed then 1 else 0)) reports))
  | Telemetry { origin; cursor; readings } ->
      (* Measurement point names use '.' separators, never ':', ',' or
         '='; values are signed scaled integers. Shares the per-origin
         batch cursor, so stale telemetry replays are rejected by the
         same monotone gate. *)
      Printf.sprintf "telem:%s:%d:%s" origin cursor
        (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) readings))

(* Only the spelling [string_of_int] prints: an optional '-', then
   decimal digits with no leading zero, and no "-0". That rules out the
   '+', radix prefixes and underscores [int_of_string] also takes.
   Checked in place: telemetry decodes one int per reading. *)
let rec digits_from s i =
  i = String.length s || (s.[i] >= '0' && s.[i] <= '9' && digits_from s (i + 1))

let canonical_int s =
  let n = String.length s in
  let first = if n > 0 && s.[0] = '-' then 1 else 0 in
  if n > first && (s.[first] <> '0' || n = 1) && digits_from s first then int_of_string_opt s
  else None

let decode_reports s =
  if String.length s = 0 then Some []
  else
    let entries = String.split_on_char ',' s in
    let parse entry =
      match String.index_opt entry '=' with
      | Some i when i > 0 && i = String.length entry - 2 -> (
          match entry.[String.length entry - 1] with
          | '0' -> Some (String.sub entry 0 i, false)
          | '1' -> Some (String.sub entry 0 i, true)
          | _ -> None)
      | _ -> None
    in
    let parsed = List.filter_map parse entries in
    if List.length parsed = List.length entries then Some parsed else None

let decode_readings s =
  if String.length s = 0 then Some []
  else
    let entries = String.split_on_char ',' s in
    let parse entry =
      match String.index_opt entry '=' with
      | Some i when i > 0 -> (
          match canonical_int (String.sub entry (i + 1) (String.length entry - i - 1)) with
          | Some v -> Some (String.sub entry 0 i, v)
          | None -> None)
      | _ -> None
    in
    let parsed = List.filter_map parse entries in
    if List.length parsed = List.length entries then Some parsed else None

let decode s =
  match String.split_on_char ':' s with
  | [ "status"; breaker; flag ] when flag = "0" || flag = "1" ->
      Some (Status { breaker; closed = flag = "1" })
  | [ "cmd"; breaker; flag ] when flag = "0" || flag = "1" ->
      Some (Command { breaker; close = flag = "1" })
  | "batch" :: origin :: cursor :: (_ :: _ as rest) -> (
      (* [rest] re-joined: breaker names are colon-free today, but a
         faulty client could ship one; re-joining keeps decode total.
         It must be present: [encode] always writes the report field's
         leading ':', even for an empty list. *)
      match canonical_int cursor with
      | Some cursor when cursor >= 0 -> (
          match decode_reports (String.concat ":" rest) with
          | Some reports -> Some (Batch { origin; cursor; reports })
          | None -> None)
      | _ -> None)
  | "telem" :: origin :: cursor :: (_ :: _ as rest) -> (
      match canonical_int cursor with
      | Some cursor when cursor >= 0 -> (
          match decode_readings (String.concat ":" rest) with
          | Some readings -> Some (Telemetry { origin; cursor; readings })
          | None -> None)
      | _ -> None)
  | _ -> None

let breaker = function
  | Status { breaker; _ } -> breaker
  | Command { breaker; _ } -> breaker
  | Batch { origin; _ } -> origin
  | Telemetry { origin; _ } -> origin

(* Device updates carried by an op: a batch counts every report;
   telemetry carries measurements, not position updates. *)
let updates = function
  | Status _ -> 1
  | Command _ -> 0
  | Batch { reports; _ } -> List.length reports
  | Telemetry _ -> 0

let pp ppf op = Fmt.string ppf (encode op)
