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

val sensed_feature_of_trigger : Rule.trigger -> Env.t option

val attr_senses : Env.t -> string option -> bool
(** Does a variable with this attribute ([None]: no attribute) sense
    the feature? *)

(** {2 Channel-key bits}

    The bits of the detector's channel keys: a key is the union of the
    bits of the names and features it holds. *)

val feature_bit : Env.t -> int
(** One fixed bit per environment feature. *)

val mode_bit : int
(** The location mode's bit, distinct from every other bit. *)

val name_bit : string -> int
(** An attribute's or command's bit, hashed into the bits no feature
    and not the mode uses; two names may share one. *)

val polarity_can_satisfy : Formula.t -> string -> Effects.polarity -> bool
(** Could a change in this direction help satisfy the formula? *)
