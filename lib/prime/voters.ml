(* Voter sets. A quorum needs distinct voters and nothing else, so a set
   of at most n replicas is one int: the bit of each voter. Every write
   checks the voter against n first ([add]); [Config.create] bounds n by
   the int's width, so [1 lsl v] is always its own bit. *)

let valid config v = v >= 0 && v < config.Config.n

let add config set v = if valid config v then set lor (1 lsl v) else set

(* One step per voter: clear the lowest set bit. *)
let rec count set = if set = 0 then 0 else 1 + count (set land (set - 1))
