(* Replicated SCADA application state.

   Tracks, per breaker: the last reported field position and the last
   supervisory command. Deterministic application of ordered operations
   keeps every replica's copy identical; the canonical serialization and
   digest support the application-level state transfer of Section III-A.

   The digest is maintained incrementally and hashed when it is read.
   Three Merkle trees cover the state: one over the breakers in a
   canonical name order frozen at [create], one over the per-origin
   batch cursors (one slot per scenario proxy plus a spill leaf for
   origins outside the topology), and one over the telemetry points.
   Applying an operation only marks the leaves it changed. A read
   ([digest], [digest_root]) hashes each stale leaf once, then their
   ancestors once each, then combines the three roots under a domain
   separator; with nothing stale it is a field read. Checkpoints, f + 1
   digest votes and invariant sweeps read far less often than batches
   change leaves. The canonical blob is a Wire binary encoding,
   memoized behind a dirty flag so repeated state-transfer replies at
   the same execution point serialize once. *)

type breaker_state = {
  b_index : int; (* leaf slot in the breaker tree, frozen at create *)
  b_name : string;
  mutable reported_closed : bool;
  mutable commanded_close : bool;
  mutable last_change_exec : int; (* exec_seq of last status change *)
}

type telem_state = {
  t_index : int; (* leaf slot in the telemetry tree, frozen at create *)
  t_name : string;
  mutable t_value : int; (* scaled signed reading; 0 until reported *)
  mutable t_last_exec : int; (* exec_seq of last report (0 = never) *)
}

type t = {
  scenario : Plc.Power.scenario;
  breakers : (string, breaker_state) Hashtbl.t;
  ordered : breaker_state array; (* canonical name order, frozen at create *)
  batch_cursors : (string, int) Hashtbl.t; (* origin proxy -> last applied batch cursor *)
  cursor_slots : string array; (* known origins ("proxy-<plc>"), sorted, frozen *)
  cursor_index : (string, int) Hashtbl.t; (* origin -> cursor-tree leaf slot *)
  telemetry : (string, telem_state) Hashtbl.t;
  telem_ordered : telem_state array; (* canonical name order, frozen at create *)
  mutable btree : Crypto.Merkle.tree;
  mutable ctree : Crypto.Merkle.tree;
  mutable ttree : Crypto.Merkle.tree;
  mutable root : Crypto.Sha256.digest option; (* combined root; [None] once a leaf is marked *)
  mutable root_hex : string option; (* lazy hex rendering of [root] *)
  mutable blob : string option; (* memoized canonical serialization *)
  mutable ops_applied : int;
  (* perf counters, read through the scada.state probe *)
  mutable n_digest_cached : int;
  mutable n_digest_recompute : int;
  mutable n_serialize : int;
}

let format_version = 3

(* --- leaf encodings ---------------------------------------------------------

   Leaves carry the breaker/origin name, so two states can never collide
   by swapping values between slots; the tree position alone is not
   trusted as identity. *)

let breaker_flags b =
  (if b.reported_closed then 1 else 0) lor (if b.commanded_close then 2 else 0)

let encode_breaker_leaf name flags exec =
  Wire.encode ~size_hint:(String.length name + 13) (fun buf ->
      Wire.w_str buf name;
      Wire.w_u8 buf flags;
      Wire.w_int buf exec)

let breaker_leaf b = encode_breaker_leaf b.b_name (breaker_flags b) b.last_change_exec

let cursor_leaf origin value =
  Wire.encode ~size_hint:(String.length origin + 12) (fun buf ->
      Wire.w_str buf origin;
      Wire.w_int buf value)

let encode_telem_leaf name value exec =
  Wire.encode ~size_hint:(String.length name + 20) (fun buf ->
      Wire.w_str buf name;
      Wire.w_int buf value;
      Wire.w_int buf exec)

let telem_leaf p = encode_telem_leaf p.t_name p.t_value p.t_last_exec

let encode_extras extras =
  Wire.encode (fun buf ->
      Wire.w_u32 buf (List.length extras);
      List.iter
        (fun (o, c) ->
          Wire.w_str buf o;
          Wire.w_int buf c)
        extras)

(* --- tree construction ------------------------------------------------------ *)

let cursor_value t origin = Option.value ~default:0 (Hashtbl.find_opt t.batch_cursors origin)

(* Cursors from origins outside the frozen topology (a faulty client may
   invent any origin string) share one spill leaf: their sorted table.
   It is encoded only when the leaf is stale at a read, so an origin-
   inventing client costs one sort per read, not one per op. *)
let extras_blob t =
  let extras =
    Hashtbl.fold
      (fun origin c acc -> if Hashtbl.mem t.cursor_index origin then acc else (origin, c) :: acc)
      t.batch_cursors []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  encode_extras extras

(* The live trees and [recompute_digest]'s throwaway ones share these
   builders; a live tree rereads a marked leaf through the same closure. *)
let build_btree t =
  if Array.length t.ordered = 0 then Crypto.Merkle.build [| "no-breakers" |]
  else
    Crypto.Merkle.init (Array.length t.ordered) (fun i ->
        Crypto.Merkle.leaf_hash (breaker_leaf t.ordered.(i)))

let build_ctree t =
  let ns = Array.length t.cursor_slots in
  Crypto.Merkle.init (ns + 1) (fun i ->
      if i < ns then
        let o = t.cursor_slots.(i) in
        Crypto.Merkle.leaf_hash (cursor_leaf o (cursor_value t o))
      else Crypto.Merkle.leaf_hash (extras_blob t))

let build_ttree t =
  if Array.length t.telem_ordered = 0 then Crypto.Merkle.build [| "no-telemetry" |]
  else
    Crypto.Merkle.init (Array.length t.telem_ordered) (fun i ->
        Crypto.Merkle.leaf_hash (telem_leaf t.telem_ordered.(i)))

(* The subtree roots combine under their own domain separator, so a
   state root can never be confused with a bare Merkle root or a leaf. *)
let combine_roots broot croot troot =
  Crypto.Sha256.digest_list [ "\x04state-root"; broot; croot; troot ]

(* Full O(n) rebuild: create, load, reset. Fresh trees, nothing stale. *)
let rebuild t =
  t.btree <- build_btree t;
  t.ctree <- build_ctree t;
  t.ttree <- build_ttree t;
  t.root <- None;
  t.root_hex <- None;
  t.blob <- None;
  t.n_digest_recompute <- t.n_digest_recompute + 1

(* --- incremental updates ----------------------------------------------------

   A touch only marks the changed leaf; the next read hashes it. *)

let touch t tree i =
  Crypto.Merkle.mark tree i;
  t.root <- None;
  t.root_hex <- None;
  t.blob <- None

let touch_breaker t b = touch t t.btree b.b_index

(* Origins outside the topology all land on the spill leaf, the last. *)
let touch_cursor t origin =
  touch t t.ctree
    (Option.value ~default:(Array.length t.cursor_slots) (Hashtbl.find_opt t.cursor_index origin))

let touch_telem t p = touch t t.ttree p.t_index

(* --- construction ----------------------------------------------------------- *)

let create scenario =
  let breakers = Hashtbl.create 64 in
  let names = List.sort_uniq String.compare (Plc.Power.all_breakers scenario) in
  let ordered =
    Array.of_list
      (List.mapi
         (fun i name ->
           let b =
             {
               b_index = i;
               b_name = name;
               reported_closed = true;
               commanded_close = true;
               last_change_exec = 0;
             }
           in
           Hashtbl.replace breakers name b;
           b)
         names)
  in
  let origins =
    List.sort_uniq String.compare
      (List.map (fun p -> "proxy-" ^ p.Plc.Power.plc_name) scenario.Plc.Power.plcs)
  in
  let cursor_slots = Array.of_list origins in
  let cursor_index = Hashtbl.create 16 in
  Array.iteri (fun i o -> Hashtbl.replace cursor_index o i) cursor_slots;
  (* Telemetry slots: the electrical overlay's measurement points,
     sorted, frozen at create — derived deterministically from the
     scenario so every replica freezes the same slots. *)
  let telemetry = Hashtbl.create 64 in
  let telem_ordered =
    Array.of_list
      (List.mapi
         (fun i name ->
           let p = { t_index = i; t_name = name; t_value = 0; t_last_exec = 0 } in
           Hashtbl.replace telemetry name p;
           p)
         (Power.Model.point_names (Power.Model.of_scenario scenario)))
  in
  let placeholder = Crypto.Merkle.build_of_leaf_hashes [| Crypto.Merkle.leaf_hash "" |] in
  let t =
    {
      scenario;
      breakers;
      ordered;
      batch_cursors = Hashtbl.create 16;
      cursor_slots;
      cursor_index;
      telemetry;
      telem_ordered;
      btree = placeholder;
      ctree = placeholder;
      ttree = placeholder;
      root = None;
      root_hex = None;
      blob = None;
      ops_applied = 0;
      n_digest_cached = 0;
      n_digest_recompute = 0;
      n_serialize = 0;
    }
  in
  rebuild t;
  t

let scenario t = t.scenario

let ops_applied t = t.ops_applied

let breaker t name = Hashtbl.find_opt t.breakers name

let reported_closed t name =
  match breaker t name with Some b -> b.reported_closed | None -> false

let apply_status t ~exec_seq ~name ~closed =
  match Hashtbl.find_opt t.breakers name with
  | Some b ->
      let changed = b.reported_closed <> closed in
      if changed then begin
        b.reported_closed <- closed;
        b.last_change_exec <- exec_seq;
        touch_breaker t b
      end;
      changed
  | None -> false

(* Applying an unknown breaker's op is a no-op rather than an error: a
   faulty client may inject names outside the topology, and replicas must
   stay deterministic rather than crash. Returns the status changes the
   op produced, in report order. *)
let apply_changes t ~exec_seq op =
  t.ops_applied <- t.ops_applied + 1;
  match op with
  | Op.Status { breaker = name; closed } ->
      if apply_status t ~exec_seq ~name ~closed then [ (name, closed) ] else []
  | Op.Command { breaker = name; close } ->
      (match Hashtbl.find_opt t.breakers name with
      | Some b ->
          if b.commanded_close <> close then begin
            b.commanded_close <- close;
            touch_breaker t b
          end
      | None -> ());
      []
  | Op.Batch { origin; cursor; reports } ->
      (* Per-origin cursor gate: batches are applied at most once and in
         submission order. The cursor table is replicated state (it is
         part of the canonical serialization), so every replica — and a
         replica restored from a checkpoint — makes the same decision. *)
      let last = Option.value ~default:0 (Hashtbl.find_opt t.batch_cursors origin) in
      if cursor <= last then []
      else begin
        Hashtbl.replace t.batch_cursors origin cursor;
        touch_cursor t origin;
        (* Explicit left-to-right application: reports are applied in
           submission order on every replica. *)
        List.rev
          (List.fold_left
             (fun acc (name, closed) ->
               if apply_status t ~exec_seq ~name ~closed then (name, closed) :: acc else acc)
             [] reports)
      end
  | Op.Telemetry { origin; cursor; readings } ->
      (* Telemetry shares the origin's monotone batch cursor, so a stale
         measurement aggregate can never overwrite fresher readings.
         Unknown point names are deterministic no-ops, like unknown
         breakers. Reported points record the exec_seq even when the
         value is unchanged: [t_last_exec > 0] is the "ever reported"
         mark consumers (the state estimator) key off. *)
      let last = Option.value ~default:0 (Hashtbl.find_opt t.batch_cursors origin) in
      if cursor <= last then []
      else begin
        Hashtbl.replace t.batch_cursors origin cursor;
        touch_cursor t origin;
        List.iter
          (fun (name, v) ->
            match Hashtbl.find_opt t.telemetry name with
            | Some p ->
                p.t_value <- v;
                p.t_last_exec <- exec_seq;
                touch_telem t p
            | None -> ())
          readings;
        []
      end

let apply t ~exec_seq op = apply_changes t ~exec_seq op <> []

let batch_cursor t origin =
  Option.value ~default:0 (Hashtbl.find_opt t.batch_cursors origin)

let energized t =
  Plc.Power.energized t.scenario ~is_closed:(fun name -> reported_closed t name)

(* Tri-state energization: path segments through breakers this state does
   not know (cross-shard feeds) are [`Unknown] rather than conflated
   with de-energized — unless a known-open breaker already proves the
   load dark. *)
let energized_tri t =
  List.map
    (fun (feed : Plc.Power.feed) ->
      let state =
        List.fold_left
          (fun acc name ->
            match (acc, Hashtbl.find_opt t.breakers name) with
            | `De_energized, _ -> `De_energized
            | _, Some b when not b.reported_closed -> `De_energized
            | `Unknown, _ -> `Unknown
            | `Energized, Some _ -> `Energized
            | `Energized, None -> `Unknown)
          `Energized feed.path
      in
      (feed.load_name, state))
    t.scenario.Plc.Power.feeds

(* Scaled reading for a measurement point; [None] until a proxy's
   telemetry first reports it (and for names outside the frozen slots). *)
let telemetry_value t name =
  match Hashtbl.find_opt t.telemetry name with
  | Some p when p.t_last_exec > 0 -> Some p.t_value
  | _ -> None

(* --- digest ----------------------------------------------------------------- *)

(* Hashes what is stale (see [Crypto.Merkle.tree_root]) and combines the
   subtree roots once per read that follows a change. *)
let root t =
  match t.root with
  | Some r -> r
  | None ->
      let r =
        combine_roots (Crypto.Merkle.tree_root t.btree) (Crypto.Merkle.tree_root t.ctree)
          (Crypto.Merkle.tree_root t.ttree)
      in
      t.root <- Some r;
      r

let digest_root t =
  t.n_digest_cached <- t.n_digest_cached + 1;
  root t

let digest t =
  t.n_digest_cached <- t.n_digest_cached + 1;
  match t.root_hex with
  | Some h -> h
  | None ->
      let h = Crypto.Sha256.to_hex (root t) in
      t.root_hex <- Some h;
      h

(* From-scratch recompute that deliberately bypasses the live trees:
   differential tests and benches compare it against [digest] to prove
   the mark-and-flush path never drifts. *)
let recompute_digest t =
  let btree = build_btree t in
  let ctree = build_ctree t in
  let ttree = build_ttree t in
  t.n_digest_recompute <- t.n_digest_recompute + 1;
  Crypto.Sha256.to_hex
    (combine_roots (Crypto.Merkle.tree_root btree) (Crypto.Merkle.tree_root ctree)
       (Crypto.Merkle.tree_root ttree))

let stats t = (t.n_digest_cached, t.n_digest_recompute, t.n_serialize)

(* --- canonical serialization ------------------------------------------------ *)

(* Binary blob: version byte, breakers in the frozen canonical order
   (name, flags, last-change exec), then the cursor table sorted by
   origin. Length-prefixed fields replace the old sprintf/';' text
   rendering, and the result is memoized until the next mutation. *)
let serialize t =
  match t.blob with
  | Some s -> s
  | None ->
      t.n_serialize <- t.n_serialize + 1;
      let cursors =
        Hashtbl.fold (fun origin c acc -> (origin, c) :: acc) t.batch_cursors []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let s =
        Wire.encode
          ~size_hint:(16 + (24 * Array.length t.ordered))
          (fun buf ->
            Wire.w_u8 buf format_version;
            Wire.w_u32 buf (Array.length t.ordered);
            Array.iter
              (fun b ->
                Wire.w_str buf b.b_name;
                Wire.w_u8 buf (breaker_flags b);
                Wire.w_int buf b.last_change_exec)
              t.ordered;
            Wire.w_u32 buf (List.length cursors);
            List.iter
              (fun (o, c) ->
                Wire.w_str buf o;
                Wire.w_int buf c)
              cursors;
            (* Telemetry: only reported points ride the blob (the frozen
               order is the sorted name order, so this stays canonical);
               absent points are the never-reported default. *)
            let reported =
              Array.fold_left
                (fun acc p -> if p.t_last_exec > 0 then acc + 1 else acc)
                0 t.telem_ordered
            in
            Wire.w_u32 buf reported;
            Array.iter
              (fun p ->
                if p.t_last_exec > 0 then begin
                  Wire.w_str buf p.t_name;
                  Wire.w_int buf p.t_value;
                  Wire.w_int buf p.t_last_exec
                end)
              t.telem_ordered)
      in
      t.blob <- Some s;
      s

(* --- load ------------------------------------------------------------------- *)

exception Bad of string

(* Total parse: every structural defect — wrong version, a breaker
   missing or unknown, unsorted entries, cursor < 1, trailing bytes,
   truncation — rejects the whole blob before any state is touched.
   [serialize] writes one entry per breaker, so a blob that omits some
   has no canonical spelling and is rejected too. *)
let parse_blob t blob =
  match
    let r = Wire.reader blob in
    if Wire.r_u8 r <> format_version then raise (Bad "unsupported version");
    let nb = Wire.r_u32 r in
    if nb <> Array.length t.ordered then raise (Bad "breaker count");
    let entries = ref [] in
    let prev = ref "" in
    for i = 1 to nb do
      let name = Wire.r_str r in
      let flags = Wire.r_u8 r in
      let exec = Wire.r_int r in
      if flags land lnot 3 <> 0 then raise (Bad "bad breaker flags");
      if exec < 0 then raise (Bad "negative exec");
      if i > 1 && String.compare !prev name >= 0 then raise (Bad "breakers not sorted");
      if not (Hashtbl.mem t.breakers name) then raise (Bad ("unknown breaker " ^ name));
      prev := name;
      entries := (name, flags, exec) :: !entries
    done;
    let nc = Wire.r_u32 r in
    let cursors = ref [] in
    let prev_o = ref "" in
    for i = 1 to nc do
      let origin = Wire.r_str r in
      let c = Wire.r_int r in
      if c < 1 then raise (Bad "bad cursor");
      if i > 1 && String.compare !prev_o origin >= 0 then raise (Bad "cursors not sorted");
      prev_o := origin;
      cursors := (origin, c) :: !cursors
    done;
    let nt = Wire.r_u32 r in
    let telems = ref [] in
    let prev_t = ref "" in
    for i = 1 to nt do
      let name = Wire.r_str r in
      let v = Wire.r_int r in
      let exec = Wire.r_int r in
      if exec < 1 then raise (Bad "bad telemetry exec");
      if i > 1 && String.compare !prev_t name >= 0 then raise (Bad "telemetry not sorted");
      if not (Hashtbl.mem t.telemetry name) then raise (Bad ("unknown telemetry point " ^ name));
      prev_t := name;
      telems := (name, v, exec) :: !telems
    done;
    if not (Wire.at_end r) then raise (Bad "trailing bytes");
    (List.rev !entries, List.rev !cursors, List.rev !telems)
  with
  | parsed -> Ok parsed
  | exception Bad e -> Error e
  | exception Wire.Truncated -> Error "truncated state blob"

(* Install a serialized state with full-replacement semantics: every
   breaker takes the blob's entry, and the cursor table and telemetry are
   rebuilt from the blob alone (points it omits revert to defaults), so
   a snapshot install can never leave stale local values behind. *)
let load t blob =
  match parse_blob t blob with
  | Error _ as e -> e
  | Ok (entries, cursors, telems) ->
      List.iter
        (fun (name, flags, exec) ->
          let b = Hashtbl.find t.breakers name in
          b.reported_closed <- flags land 1 <> 0;
          b.commanded_close <- flags land 2 <> 0;
          b.last_change_exec <- exec)
        entries;
      Hashtbl.reset t.batch_cursors;
      List.iter (fun (origin, c) -> Hashtbl.replace t.batch_cursors origin c) cursors;
      Array.iter
        (fun p ->
          p.t_value <- 0;
          p.t_last_exec <- 0)
        t.telem_ordered;
      List.iter
        (fun (name, v, exec) ->
          let p = Hashtbl.find t.telemetry name in
          p.t_value <- v;
          p.t_last_exec <- exec)
        telems;
      rebuild t;
      Ok ()

(* The root a blob would produce if installed here, without touching the
   live state. Durable uses it to bind a checkpoint's state blob to its
   signed [ck_app_root] — the root no longer covers the blob bytes
   directly, so install paths check the binding explicitly. *)
let root_of_blob t blob =
  match parse_blob t blob with
  | Error _ as e -> e
  | Ok (entries, cursors, telems) ->
      (* One entry per breaker, in the frozen (sorted) leaf order. *)
      let bl =
        if entries = [] then [| Crypto.Merkle.leaf_hash "no-breakers" |]
        else
          Array.of_list
            (List.map
               (fun (name, flags, exec) ->
                 Crypto.Merkle.leaf_hash (encode_breaker_leaf name flags exec))
               entries)
      in
      let ctbl = Hashtbl.create 16 in
      List.iter (fun (o, c) -> Hashtbl.replace ctbl o c) cursors;
      let ns = Array.length t.cursor_slots in
      let cl =
        Array.init (ns + 1) (fun i ->
            if i < ns then
              let o = t.cursor_slots.(i) in
              let v = Option.value ~default:0 (Hashtbl.find_opt ctbl o) in
              Crypto.Merkle.leaf_hash (cursor_leaf o v)
            else
              Crypto.Merkle.leaf_hash
                (encode_extras (List.filter (fun (o, _) -> not (Hashtbl.mem t.cursor_index o)) cursors)))
      in
      let ttbl = Hashtbl.create 16 in
      List.iter (fun (name, v, exec) -> Hashtbl.replace ttbl name (v, exec)) telems;
      let nt = Array.length t.telem_ordered in
      let tl =
        if nt = 0 then [| Crypto.Merkle.leaf_hash "no-telemetry" |]
        else
          Array.map
            (fun p ->
              let v, exec =
                Option.value ~default:(0, 0) (Hashtbl.find_opt ttbl p.t_name)
              in
              Crypto.Merkle.leaf_hash (encode_telem_leaf p.t_name v exec))
            t.telem_ordered
      in
      Ok
        (combine_roots
           (Crypto.Merkle.tree_root (Crypto.Merkle.build_of_leaf_hashes bl))
           (Crypto.Merkle.tree_root (Crypto.Merkle.build_of_leaf_hashes cl))
           (Crypto.Merkle.tree_root (Crypto.Merkle.build_of_leaf_hashes tl)))

(* Ground-truth reset (Section III-A): wipe to defaults; the proxies'
   next polling round repopulates from the field devices. *)
let reset t =
  Array.iter
    (fun b ->
      b.reported_closed <- true;
      b.commanded_close <- true;
      b.last_change_exec <- 0)
    t.ordered;
  Hashtbl.reset t.batch_cursors;
  Array.iter
    (fun p ->
      p.t_value <- 0;
      p.t_last_exec <- 0)
    t.telem_ordered;
  t.ops_applied <- 0;
  rebuild t
