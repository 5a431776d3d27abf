(** Human-readable rendering of extracted rules (paper §IV-C: "users can
    check if the app itself will behave as it claims"). *)

module Rule = Homeguard_rules.Rule

val describe : Rule.t -> string
(** One sentence per rule: "When ..., if ..., then ...". *)

val describe_app : Rule.smartapp -> string
(** All rules, numbered R1, R2, ... *)
