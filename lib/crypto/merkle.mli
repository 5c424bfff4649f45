(** Merkle hash trees, used for the SCADA state's incremental digests
    and for checkpoint identity.

    Trees are built bottom-up into arrays, so replacing one leaf rehashes
    only its path to the root. *)

(** A built tree, kept to update leaves in place. *)
type tree

(** [build leaves] hashes the leaf data and builds all levels. Raises
    [Invalid_argument] on an empty array. *)
val build : string array -> tree

(** [build_of_leaf_hashes hashes] builds a tree over already-hashed
    leaves (pair with {!leaf_hash}). Raises [Invalid_argument] on an
    empty array. *)
val build_of_leaf_hashes : Sha256.digest array -> tree

(** [set_leaf_hash t index h] replaces leaf [index]'s hash and rehashes
    only the path to the root — O(log n). The result is identical to
    rebuilding the tree with the new leaf set. Raises
    [Invalid_argument] if [index] is out of range. *)
val set_leaf_hash : tree -> int -> Sha256.digest -> unit

val tree_root : tree -> Sha256.digest

(** Root hash over the leaf data list. Raises [Invalid_argument] on an
    empty list. *)
val root : string list -> Sha256.digest

(** Domain-separated leaf hash. *)
val leaf_hash : string -> Sha256.digest
