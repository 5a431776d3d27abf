(** Backtracking propagate-and-split search over a conjunct of atoms. *)

type model = (string * Domain.value) list

val relevant_vars : Dnf.conjunct -> string list
(** Variables the atoms mention, without duplicates (a witness model
    carries one binding per variable), in the order of a witness's
    bindings: the variable first seen last comes first. *)

val solve :
  ?budget:Budget.t -> ?max_depth:int -> Store.t -> Dnf.conjunct -> model Budget.verdict
(** Decide the conjunction: [Sat model], [Unsat], or [Unknown reason]
    when [budget] (default: unlimited) or the depth cap trips first.
    Budget exhaustion is never mapped to [Unsat]. Every variable
    mentioned by the atoms must be typed in the store. *)
