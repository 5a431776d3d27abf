(** Interference channels: the two ways one rule's action reaches
    another rule — direct attribute writes and environment features
    (paper §VI-B, §VI-C). *)

module Rule = Homeguard_rules.Rule
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
module Env = Homeguard_st.Env_feature

type attr_write = {
  w_target : Rule.action_target;
  w_attr : string;
  w_value : Term.t option;
}

val attribute_writes : Rule.smartapp -> Rule.action -> attr_write list

val environment_effects :
  Rule.smartapp -> Rule.action -> (Env.t * Effects.polarity) list

val sensed_feature_of_trigger : Rule.trigger -> Env.t option

val attr_senses : Env.t -> string option -> bool
(** Does a variable with this attribute ([None]: no attribute) sense
    the feature? *)

type direction_need = Needs_high | Needs_low | Needs_value of Term.t | Needs_any

val direction_needs : Formula.t -> string -> direction_need list
(** How the (NNF of the) formula constrains a variable. *)

val polarity_can_satisfy : Formula.t -> string -> Effects.polarity -> bool
(** Could a change in this direction help satisfy the formula? *)
