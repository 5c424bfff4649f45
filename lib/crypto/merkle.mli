(** Merkle hash trees, used for the SCADA state's incremental digests
    and for checkpoint identity.

    Trees are built bottom-up into arrays. A changed leaf is only marked;
    reading the root hashes each marked leaf once and then only the
    nodes above them, each once. *)

(** A built tree, kept to update leaves in place. *)
type tree

(** [init n leaf] builds a tree over the leaf hashes [leaf 0] …
    [leaf (n - 1)], and keeps [leaf] to rehash marked leaves. Raises
    [Invalid_argument] if [n < 1]. *)
val init : int -> (int -> Sha256.digest) -> tree

(** [build leaves] hashes the leaf data and builds all levels. Raises
    [Invalid_argument] on an empty array. *)
val build : string array -> tree

(** [build_of_leaf_hashes hashes] builds a tree over already-hashed
    leaves (pair with {!leaf_hash}); a marked leaf [i] is reread from
    [hashes.(i)]. Raises [Invalid_argument] on an empty array. *)
val build_of_leaf_hashes : Sha256.digest array -> tree

(** [mark t i] records leaf [i] as stale: the next {!tree_root} asks the
    tree's leaf function for its hash again. It hashes nothing. Raises
    [Invalid_argument] if [i] is out of range. *)
val mark : tree -> int -> unit

(** The root, identical to rebuilding the tree over the current leaf
    hashes. Rehashes the stale leaves and their ancestors first, each
    once; with nothing stale it is a field read. *)
val tree_root : tree -> Sha256.digest

(** Root hash over the leaf data list. Raises [Invalid_argument] on an
    empty list. *)
val root : string list -> Sha256.digest

(** Domain-separated leaf hash. *)
val leaf_hash : string -> Sha256.digest
