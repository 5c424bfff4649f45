(* Percentiles as the benchmark reports them: nearest rank over every
   sample, where a missed sample is [infinity] and so ranks last. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest value with at least [p]% of the sample at
   or below it. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The highest whole percentile that leaves at least ten samples beyond
   it, capped at p99 (reached at 1 000 samples) and floored at the
   median. *)
let tail n = if n <= 0 then 50.0 else float_of_int (min 99 (max 50 (100 * (n - 10) / n)))

let median values = nearest_rank (sorted values) 50.0
