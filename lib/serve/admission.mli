(** Admission control: bounded per-home and global work queues with
    explicit backpressure replies. *)

type priority =
  | Interactive  (** install-time audits; a user is waiting *)
  | Background  (** full re-audits, post-recovery sweeps *)

type t
type ticket

val max_global : int
(** The global allowance [in_flight] counts against: 16. Background
    work may use all but 2 of it, the slots reserved for interactive
    work. *)

val create : ?max_per_home:int -> unit -> t
(** Default: 4 per home.
    @raise Invalid_argument on a non-positive bound. *)

val try_admit : t -> home:string -> priority -> (ticket, int) result
(** Admit or refuse immediately; [Error retry_after_ms] is the
    backpressure reply ([busy retry-after-ms=N]), always positive and
    proportional to the depth of the queue ahead of the caller (an
    estimated 50 ms per queued request), so a deeper backlog pushes
    shed clients further out instead of recalling the whole cohort
    after one constant interval. Background admission is capped at
    {!max_global} less the interactive reserve so maintenance bursts
    cannot starve the interactive path; the per-home bound applies to
    both priorities. *)

val release : t -> ticket -> unit
(** Idempotent; every admitted ticket must be released exactly once
    (extra releases are ignored). *)

val in_flight : t -> int

val occupancy : t -> float
(** Fraction of the global allowance in use, in [0, 1]. *)
