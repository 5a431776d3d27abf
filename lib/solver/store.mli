(** Variable stores: typed domains for solver variables, plus domain
    inference for variables a formula leaves untyped. *)

type t

val empty : t
val add : string -> Domain.t -> t -> t
val of_list : (string * Domain.t) list -> t
val find_opt : string -> t -> Domain.t option
val bindings : t -> (string * Domain.t) list

val default_int_lo : int
val default_int_hi : int

val other_value : string
(** Sentinel enum member standing for "any value other than the
    constants the formula mentions"; keeps disequalities satisfiable. *)

val infer : t -> Formula.t -> t
(** Extend the store with domains for every free variable of the
    formula: numeric by default, enumerated when the variable is only
    ever compared against string constants (universes joined across
    variable-variable equalities). *)
