(** HC4-style constraint propagation over a conjunct of atoms whose
    variables are interned as slots of a domain array. *)

exception Unsat
(** A domain was wiped out: the conjunct has no model. *)

(** A {!Term.t} whose variables are slots of the domain array. *)
type term =
  | Int of int
  | Str of string
  | Var of int
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Neg of term

type atom = Formula.cmp * term * term

val compile : (string -> int) -> Dnf.atom -> atom
(** [compile slot atom] replaces every variable [v] by [Var (slot v)]. *)

val run : ?budget:Budget.t -> Domain.t array -> atom list -> unit
(** Revise every atom to fixpoint (bounded by a fixed number of rounds,
    which never compromises soundness), narrowing the array in place.
    Each revision spends one step of [budget]'s propagation fuel;
    exhaustion raises {!Budget.Exhausted}, never {!Unsat}. *)
