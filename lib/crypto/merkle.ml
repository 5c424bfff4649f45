(* Merkle hash trees over byte strings.

   Used for incremental state digests (the SCADA state keeps one tree per
   breaker, cursor and telemetry table and rehashes one root path per
   update) and for checkpoint identity (a root over a checkpoint's
   fields). Leaves and interior nodes use distinct domain separators so
   a leaf cannot be replayed as an interior node.

   The tree is built bottom-up into arrays: level 0 holds the leaf
   hashes, each higher level the pairwise node hashes. Odd nodes are
   promoted unchanged (Bitcoin-style duplication would allow leaf-set
   ambiguity). *)

let leaf_hash data = Sha256.digest_list [ "\x00merkle-leaf"; data ]

let node_hash left right = Sha256.digest_list [ "\x01merkle-node"; left; right ]

type tree = { levels : Sha256.digest array array }
(* levels.(0) = leaf hashes; last level has a single entry, the root. *)

let build_of_leaf_hashes leaf_hashes =
  let n = Array.length leaf_hashes in
  if n = 0 then invalid_arg "Merkle.build: no leaves";
  let rec up acc level =
    let len = Array.length level in
    if len = 1 then List.rev (level :: acc)
    else
      let next =
        Array.init ((len + 1) / 2) (fun i ->
            if (2 * i) + 1 < len then node_hash level.(2 * i) level.((2 * i) + 1)
            else level.(2 * i) (* promoted odd node *))
      in
      up (level :: acc) next
  in
  { levels = Array.of_list (up [] leaf_hashes) }

let build leaves = build_of_leaf_hashes (Array.map leaf_hash leaves)

(* Replace one leaf hash and rehash only the root path. Each level's
   parent recomputes from the two children below it — unless the left
   child is a promoted odd node, which carries its hash up unchanged
   exactly as [build_of_leaf_hashes] would. O(log n) node hashes. *)
let set_leaf_hash t index h =
  let n = Array.length t.levels.(0) in
  if index < 0 || index >= n then invalid_arg "Merkle.set_leaf_hash: index out of range";
  t.levels.(0).(index) <- h;
  let idx = ref index in
  for l = 0 to Array.length t.levels - 2 do
    let level = t.levels.(l) in
    let parent = !idx / 2 in
    let left = 2 * parent in
    t.levels.(l + 1).(parent) <-
      (if left + 1 < Array.length level then node_hash level.(left) level.(left + 1)
       else level.(left) (* promoted odd node *));
    idx := parent
  done

let tree_root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let root leaves = tree_root (build (Array.of_list leaves))
