(** Heartbeat health check: missed-beat detection against an
    injectable clock, so a stalled (not just crashed) shard is caught
    and restarted. *)

type t
type status = Alive | Late of int | Failed of int

val create : ?interval_ms:float -> ?miss_threshold:int -> Homeguard_serve.Deadline.clock -> t
(** Defaults: 1000 ms beat interval, failed after 3 whole missed
    intervals. The creation instant counts as the first beat.
    @raise Invalid_argument on non-positive parameters. *)

val beat : t -> unit
val status : t -> status
(** [Late] is informational; [Failed] (missed >= threshold) triggers a
    supervised restart. *)

val beats : t -> int
val describe : t -> string
