(** Per-shard circuit breaker: Closed / Open / Half_open over
    consecutive shard-level failures, with honest retry hints while
    open and bounded probing before closing again. *)

type state = Closed | Open | Half_open
type t

val create :
  failure_threshold:int -> reset_timeout_ms:float -> Homeguard_serve.Deadline.clock -> t
(** Trip after [failure_threshold] consecutive failures, probe after
    [reset_timeout_ms], close after 2 probe successes (a constant).
    @raise Invalid_argument on non-positive parameters. *)

val state : t -> state

val allow : t -> [ `Admit | `Probe | `Reject of float ]
(** Admission decision for one request; [`Reject ms] is the time until
    the next probe window. An [Open] breaker whose reset timeout has
    elapsed transitions to [Half_open] here and admits the probe. *)

val note_success : t -> unit
(** Resets the failure streak; in [Half_open], counts toward closing. *)

val note_failure : t -> unit
(** One shard-level failure. Trips at the threshold; a [Half_open]
    probe failure re-opens immediately and restarts the reset clock. *)

val begin_probing : t -> unit
(** Move a non-[Closed] breaker straight to [Half_open] — used after a
    supervised restart, whose backoff already served as the shed
    window. *)

val retry_after_ms : t -> float
(** Remaining shed window (0 unless [Open]). *)

val trips : t -> int
(** Times the breaker has opened (monotonic). *)

val describe : t -> string
