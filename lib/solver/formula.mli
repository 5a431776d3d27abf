(** Quantifier-free formulas over {!Term}s. Negation can always be
    pushed onto atoms by flipping the comparator, so normal forms contain
    positive atoms only. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Atom of cmp * Term.t * Term.t
  | And of t list
  | Or of t list
  | Not of t

val atom : cmp -> Term.t -> Term.t -> t
val eq : Term.t -> Term.t -> t
val neq : Term.t -> Term.t -> t
val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t
val gt : Term.t -> Term.t -> t
val ge : Term.t -> Term.t -> t

val conj : t list -> t
(** n-ary conjunction with unit/zero simplification; {!disj} is its dual. *)

val disj : t list -> t

val nnf : t -> t
(** Negation-normal form: [Not] eliminated by comparator flipping. *)

val memo_enabled : bool ref
(** Has no effect: {!nnf} keeps no memo. It stays only because hgbench's
    reference run assigns it, and {!Solver.flags_fingerprint} still
    reads it so that verdict cache keys keep their bytes. *)

val conjuncts : t -> t list
(** Nested conjunctions flattened into their non-[And] conjuncts. *)

val free_vars : t -> string list
(** In first-occurrence order. *)

val cmp_to_string : cmp -> string
val to_string : t -> string
val subst : (string * Term.t) list -> t -> t

val compare_values : cmp -> Domain.value -> Domain.value -> bool
(** Comparisons between ints and strings are false except [Neq];
    ordering strings raises [Invalid_argument]. *)

val eval : (string -> Domain.value) -> t -> bool
(** Evaluation under a total assignment; raises [Not_found] on an
    unbound variable. *)
