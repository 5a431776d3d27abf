(** Disjunctive normal form of quantifier-free formulas, as a lazy
    sequence.

    After NNF (negations pushed into comparators) a formula is a
    positive combination of atoms, and its DNF is a sequence of
    conjuncts, each a plain atom list. The sequence is lazy: a solver
    that stops at the first satisfiable conjunct never builds the rest,
    so the exponential worst case costs only what is walked. *)

type atom = Formula.cmp * Term.t * Term.t

type conjunct = atom list

(** [of_formula f] yields the conjuncts of [f]'s DNF: [Or] disjuncts
    left to right, [And] children distributed with the first child
    outermost, and atoms in formula order. An empty sequence means
    [False]; an empty conjunct is trivially true. *)
let of_formula f =
  let rec go = function
    | Formula.True -> Seq.return []
    | Formula.False -> Seq.empty
    | Formula.Atom (cmp, a, b) -> Seq.return [ (cmp, a, b) ]
    | Formula.And fs -> conj fs
    | Formula.Or fs -> Seq.concat_map go (List.to_seq fs)
    | Formula.Not _ -> invalid_arg "Dnf.of_formula: formula not in NNF"
  and conj = function
    | [] -> Seq.return []
    | f :: rest -> Seq.concat_map (fun c1 -> Seq.map (fun c2 -> c1 @ c2) (conj rest)) (go f)
  in
  go (Formula.nnf f)

let conjunct_to_formula atoms =
  Formula.conj (List.map (fun (cmp, a, b) -> Formula.Atom (cmp, a, b)) atoms)

let to_formula conjuncts = Formula.disj (List.map conjunct_to_formula conjuncts)
