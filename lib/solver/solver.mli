(** Top-level constraint-satisfaction interface — HomeGuard's substitute
    for the JaCoP solver: satisfiability of quantifier-free formulas
    over bounded integers and enumerated strings, with witness models
    and three-valued, budget-aware verdicts, over one solve path: the
    lazy DNF, one conjunct at a time. *)

type model = Search.model

type verdict = model Budget.verdict
(** [Sat model | Unsat | Unknown of Budget.reason]. [Unknown] records
    which budget tripped and where; it is never collapsed to [Unsat]. *)

val flags_fingerprint : unit -> string
(** Stable rendering of the solver's A/B switch
    ({!Domain.bitset_enabled}) for verdict cache keys: the two modes must
    never serve each other's answers. It still renders
    {!Formula.memo_enabled}, which has no effect and is kept only for
    hgbench, so that keys and cache-journal bytes do not move. *)

val fold_verdicts : (Dnf.conjunct -> verdict) -> Dnf.conjunct Seq.t -> verdict
(** The walk {!solve} makes over a formula's conjuncts: the first Sat,
    else the first Unknown, else Unsat. It forces no conjunct after an
    Unknown for node fuel, which leaves every later one Unknown too. *)

val solve : ?budget:Budget.t -> Store.t -> Formula.t -> verdict
(** Propagate-and-split over the conjuncts of the lazy DNF
    ({!Dnf.of_formula}) in order, stopping at the first Sat, whose model
    is the witness; the store is closed over free variables via
    {!Store.infer}. One budget covers every conjunct; the default is
    unlimited. *)
