(* Streaming statistics used by benchmarks and the IDS.

   [Summary] keeps running moments (Welford) plus all samples for exact
   percentiles; experiment populations here are small enough (at most a few
   hundred thousand samples) that storing them is the simplest correct
   choice. *)

module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable samples : float list;
    mutable sorted : float array option; (* cache invalidated on add *)
  }

  let create () =
    {
      count = 0;
      mean = 0.0;
      m2 = 0.0;
      min = infinity;
      max = neg_infinity;
      samples = [];
      sorted = None;
    }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.samples <- x :: t.samples;
    t.sorted <- None

  let count t = t.count

  let mean t = if t.count = 0 then nan else t.mean

  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)

  let min t = if t.count = 0 then nan else t.min

  let max t = if t.count = 0 then nan else t.max

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list t.samples in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  (* Nearest-rank percentile: exact on the stored samples. *)
  let percentile t p =
    if t.count = 0 then nan
    else if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]"
    else
      let a = sorted t in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      let idx = Stdlib.max 0 (Stdlib.min (t.count - 1) (rank - 1)) in
      a.(idx)

  let median t = percentile t 50.0

  let pp ppf t =
    if t.count = 0 then Fmt.string ppf "(no samples)"
    else
      Fmt.pf ppf "n=%d mean=%.6f sd=%.6f min=%.6f p50=%.6f p99=%.6f max=%.6f" t.count
        (mean t) (stddev t) (min t) (median t) (percentile t 99.0) (max t)

  (* JSON object with the fields every exporter needs. NaN is not valid
     JSON, so empty summaries carry only the count. *)
  let to_json t =
    if t.count = 0 then "{\"count\":0}"
    else
      Printf.sprintf
        "{\"count\":%d,\"mean\":%.6f,\"stddev\":%.6f,\"min\":%.6f,\"p50\":%.6f,\"p99\":%.6f,\"max\":%.6f}"
        t.count (mean t) (stddev t) (min t) (median t) (percentile t 99.0) (max t)
end

module Counter = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 16

  (* [find] rather than [find_opt]: counters sit on every hop, and this
     way a bump allocates nothing. *)
  let incr ?(by = 1) t key =
    match Hashtbl.find t key with
    | current -> Hashtbl.replace t key (current + by)
    | exception Not_found -> Hashtbl.replace t key by

  let get t key = match Hashtbl.find t key with n -> n | exception Not_found -> 0

  let to_sorted_list t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

module Timeseries = struct
  type t = { mutable points : (float * float) list; mutable n : int }

  let create () = { points = []; n = 0 }

  let add t ~time value =
    t.points <- (time, value) :: t.points;
    t.n <- t.n + 1

  let to_list t = List.rev t.points

  let length t = t.n
end
