(** Lossless JSON (de)serialization of rules and extracted apps — the
    rule files the backend stores and ships (paper §VII-B, §VIII-C). *)

exception Decode_error of string

val term_to_json : Homeguard_solver.Term.t -> Json.t
val term_of_json : Json.t -> Homeguard_solver.Term.t
val formula_to_json : Homeguard_solver.Formula.t -> Json.t
val formula_of_json : Json.t -> Homeguard_solver.Formula.t
val rule_to_json : Rule.t -> Json.t
val rule_of_json : Json.t -> Rule.t
val smartapp_to_json : Rule.smartapp -> Json.t
val smartapp_of_json : Json.t -> Rule.smartapp

val to_string : Rule.smartapp -> string
(** The compact rule-file bytes the journal stores and the verdict
    cache hashes. *)

val of_string : string -> Rule.smartapp
(** Raises {!Decode_error}, and nothing else, on any input that is not
    a rule file, malformed JSON included. *)
