(* Merkle hash trees over byte strings.

   Used for incremental state digests (the SCADA state keeps one tree per
   breaker, cursor and telemetry table, marks a leaf stale when its value
   changes, and rehashes only what is stale when the root is read) and
   for checkpoint identity (a root over a checkpoint's fields). Leaves
   and interior nodes use distinct domain separators so a leaf cannot be
   replayed as an interior node.

   The tree is built bottom-up into arrays: level 0 holds the leaf
   hashes, each higher level the pairwise node hashes. Odd nodes are
   promoted unchanged (Bitcoin-style duplication would allow leaf-set
   ambiguity). *)

let leaf_hash data = Sha256.digest_list [ "\x00merkle-leaf"; data ]

let node_hash left right = Sha256.digest_list [ "\x01merkle-node"; left; right ]

type tree = {
  levels : Sha256.digest array array; (* levels.(0) = leaf hashes; the last level is the root *)
  leaf : int -> Sha256.digest; (* a leaf's current hash, asked again once it is marked *)
  stale : bool array; (* per leaf: marked since the last read *)
  mutable pending : int list; (* the stale leaves, each once *)
}

(* Node [i] of the level above [level]: the hash of its two children, or
   a promoted odd node's hash unchanged. *)
let parent level i =
  if (2 * i) + 1 < Array.length level then node_hash level.(2 * i) level.((2 * i) + 1)
  else level.(2 * i)

let init n leaf =
  if n <= 0 then invalid_arg "Merkle.build: no leaves";
  let rec up acc level =
    let len = Array.length level in
    if len = 1 then List.rev (level :: acc)
    else up (level :: acc) (Array.init ((len + 1) / 2) (parent level))
  in
  { levels = Array.of_list (up [] (Array.init n leaf)); leaf; stale = Array.make n false;
    pending = [] }

let build_of_leaf_hashes hashes = init (Array.length hashes) (Array.get hashes)

let build leaves = build_of_leaf_hashes (Array.map leaf_hash leaves)

let mark t i =
  if i < 0 || i >= Array.length t.stale then invalid_arg "Merkle.mark: index out of range";
  if not t.stale.(i) then begin
    t.stale.(i) <- true;
    t.pending <- i :: t.pending
  end

(* The distinct parents of ascending node indices, ascending. *)
let rec parents = function
  | a :: (b :: _ as rest) when a / 2 = b / 2 -> parents rest
  | a :: rest -> (a / 2) :: parents rest
  | [] -> []

(* Hashes each stale leaf once, then the dirty nodes level by level, so
   an ancestor shared by several stale leaves is hashed once. *)
let tree_root t =
  if t.pending <> [] then begin
    let stale = List.sort Int.compare t.pending in
    t.pending <- [];
    List.iter
      (fun i ->
        t.stale.(i) <- false;
        t.levels.(0).(i) <- t.leaf i)
      stale;
    let rec up l dirty =
      if l + 1 < Array.length t.levels then begin
        let dirty = parents dirty in
        List.iter (fun p -> t.levels.(l + 1).(p) <- parent t.levels.(l) p) dirty;
        up (l + 1) dirty
      end
    in
    up 0 stale
  end;
  t.levels.(Array.length t.levels - 1).(0)

let root leaves = tree_root (build (Array.of_list leaves))
