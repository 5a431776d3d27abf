(** Monotonic nanosecond clock for every timing the benchmark takes. *)

let now_ns () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6
let elapsed_ms t0 t1 = ms_of_ns (Int64.sub t1 t0)
let elapsed_s t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(** [time f] is [f ()] with its duration in milliseconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, elapsed_ms t0 (now_ns ()))
