(** HC4-style constraint propagation over a conjunct of atoms. *)

module SMap : Map.S with type key = string

exception Unsat
(** A domain was wiped out: the conjunct has no model. *)

val run : ?budget:Budget.t -> Domain.t SMap.t -> Dnf.conjunct -> Domain.t SMap.t
(** Revise every atom to fixpoint (bounded by a fixed number of rounds,
    which never compromises soundness). Each revision spends one step of
    [budget]'s propagation fuel; exhaustion raises {!Budget.Exhausted},
    never {!Unsat}. *)
