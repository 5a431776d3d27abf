(** Nearest-rank percentile: the smallest value with at least [p]
    (in [0,1]) of the sample at or below it, i.e. 1-based rank
    [ceil (p * n)]. Unlike truncating [int_of_float (p * n)], this
    never overshoots into a higher rank (p95 of 20 samples is the 19th
    value, not the maximum). Total: an empty sample yields [None]
    instead of raising. *)
let percentile p = function
  | [] -> None
  | xs ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let idx = min (n - 1) (max 0 (rank - 1)) in
    Some (List.nth sorted idx)
