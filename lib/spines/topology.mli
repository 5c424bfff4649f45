(** Static overlay topology: the nodes, the undirected links between
    them, and each node's neighbor set, precomputed once at construction
    so dissemination walks a ready array instead of building a list per
    message. *)

type node_id = int

type link = { a : node_id; b : node_id }

type t

(** Raises [Invalid_argument] on self-links, unknown endpoints, or
    duplicate links for the same (a, b) pair (in either orientation). *)
val create : nodes:node_id list -> links:link list -> t

val nodes : t -> node_id list

val links : t -> link list

val link : node_id -> node_id -> link

(** Complete graph over the nodes (the replicas' internal network). *)
val full_mesh : node_id list -> t

(** A node's neighbors, sorted by id ([| |] for unknown nodes). The
    array is precomputed and shared: callers must not mutate it. *)
val neighbors : t -> node_id -> node_id array

(** [adjacent t a b] is [true] iff a link joins [a] and [b]: a binary
    search of [a]'s precomputed neighbor array, allocation-free. *)
val adjacent : t -> node_id -> node_id -> bool
