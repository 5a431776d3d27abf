(** Heartbeat health check: missed-beat detection against an
    injectable clock, so a stalled (not just crashed) shard is caught
    and restarted. *)

type t
type status = Alive | Late of int | Failed of int

val create : interval_ms:float -> Homeguard_serve.Deadline.clock -> t
(** A shard beating every [interval_ms] is failed after 3 whole missed
    intervals, a constant. The creation instant counts as the first
    beat.
    @raise Invalid_argument on a non-positive interval. *)

val beat : t -> unit
val status : t -> status
(** [Late] is informational; [Failed] (missed >= threshold) triggers a
    supervised restart. *)

val beats : t -> int
val describe : t -> string
