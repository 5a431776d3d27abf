(** Disjunctive normal form of quantifier-free formulas, as a lazy
    sequence of conjuncts. *)

type atom = Formula.cmp * Term.t * Term.t
type conjunct = atom list

val of_formula : Formula.t -> conjunct Seq.t
(** NNF then distribution, on demand: [Or] disjuncts left to right,
    [And] children with the first child outermost, atoms in formula
    order. An empty sequence means the formula is [False]; an empty
    conjunct is trivially true. *)

val to_formula : conjunct list -> Formula.t
