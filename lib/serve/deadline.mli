(** Request deadlines, propagated from admission down to the solver. *)

module Budget = Homeguard_solver.Budget

type clock = unit -> float
(** Milliseconds; only differences matter. Injectable for tests. *)

val wall_clock : clock

type t

val make : ?clock:clock -> ?timeout_ms:float -> unit -> t
(** Fix the deadline [timeout_ms] from now; omit it for an unbounded
    request. *)

val expired : t -> bool

val budget_spec : base:Budget.spec -> t -> Budget.spec
(** [base] with its wall-clock timeout clamped to the remaining
    allowance ({!Budget.of_deadline}); [base] unchanged when
    unbounded. Callers should also disable budget escalation — an 8x
    retry would outlive the deadline the budget was cut from. *)

val cancel : t -> unit -> bool
(** Cooperative-cancellation probe: [true] once the deadline passes. *)
