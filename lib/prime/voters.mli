(** Sets of replicas as int bit sets: bit [v] stands for replica [v], and
    0 is the empty set. {!Config.create} keeps n below [Sys.int_size], so
    every replica has its own bit and no shift wraps onto replica 0. *)

(** Whether [v] names a replica: 0 <= v < n. *)
val valid : Config.t -> int -> bool

(** The set with [v] added; unchanged when [v] is not {!valid}. *)
val add : Config.t -> int -> int -> int

(** Number of replicas in the set. *)
val count : int -> int
