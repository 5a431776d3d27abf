(** Solver resource budgets (propagation fuel, search-node fuel,
    wall-clock deadline) and the three-valued {!verdict} that keeps
    budget exhaustion distinct from unsatisfiability. *)

type trip = Prop_fuel | Node_fuel | Deadline | Depth

type reason = { trip : trip; where : string }
(** Which budget tripped, and in which solver stage. *)

exception Exhausted of reason

val reason_to_string : reason -> string

type 'a verdict = Sat of 'a | Unsat | Unknown of reason
(** [Unknown] means "budget ran out before deciding"; no solver or
    detector path may convert it into [Unsat] / "no threat". *)

type spec = {
  prop_steps : int option;
  search_nodes : int option;
  timeout_ms : float option;
}
(** Immutable budget configuration; [None] fields are unlimited. *)

val unlimited_spec : spec

val default_spec : spec
(** Generous caps that rule-sized formulas never approach: the full
    corpus audit reports zero undecided pairs under this spec. *)

val spec_of_nodes : int -> spec
(** From the CLI's single [--solver-budget] knob: [n] search nodes with
    proportional propagation fuel; [n <= 0] is unlimited. *)

val of_deadline : ?base:spec -> float -> spec
(** [of_deadline ~base remaining_ms]: [base] (default {!default_spec})
    with its solve timeout clamped to the caller's remaining wall-clock
    time, so a request never consumes solver time past its own deadline.
    A non-positive remainder produces an already-expired budget. *)

val escalate : spec -> spec
(** The retry budget: every finite limit multiplied by 8. *)

val cache_fingerprint : spec -> string
(** Stable string identifying the spec, for verdict cache keys, with
    any finite wall-clock timeout collapsed to ["tdl"]: definitive
    verdicts are independent of the remaining deadline, so
    deadline-derived specs (which differ per request only in
    milliseconds left) share cache classes. Fuel tiers stay exact. *)

type t
(** Mutable fuel state for one solve. *)

val set_clock : (unit -> float) -> unit
(** Install the process-default deadline clock (seconds,
    [gettimeofday]-like). Virtual-time harnesses use this so solver
    deadlines trip deterministically; production never calls it. *)

val reset_clock : unit -> unit
(** Restore the wall clock ([Unix.gettimeofday]) as the process
    default. *)

val start : spec -> t
(** Arm a budget. The deadline (if any) is anchored on the
    process-default clock and polled against it. *)

val unlimited : unit -> t

val spend_prop : t -> where:string -> unit
(** Consume one propagation step; raises {!Exhausted} when fuel or the
    deadline runs out. *)

val spend_node : t -> where:string -> unit
(** Consume one search node; raises {!Exhausted} on exhaustion. *)
