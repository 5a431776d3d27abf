(** Order statistics over one run's samples, on top of the nearest-rank
    percentile of {!Homeguard_bench.Stats}. *)

module Stats = Homeguard_bench.Stats

(** Nearest-rank percentile; an empty sample reads 0 (a run with no
    sample has already failed its checks). *)
let pct p xs = Option.value ~default:0.0 (Stats.percentile p xs)

let median xs = pct 0.5 xs

(** The sample-count rule for tails: percentile [p] of [n] samples is
    only reported as a tail when at least [min_beyond] samples lie above
    it. *)
let tail_supported ?(min_beyond = 10) ~p n =
  n - int_of_float (Float.ceil (p *. float_of_int n)) >= min_beyond

let sum xs = List.fold_left ( +. ) 0.0 xs
