(** Per-threat handling decisions (paper §VII): the decision model and
    the store consulted when compiling a {!Mediator}. *)

module Rule = Homeguard_rules.Rule
module Threat = Homeguard_detector.Threat

type decision =
  | Allow
  | Prioritize of { winner : string }
  | Block of { rule : string }
  | Break_chain of { hop_budget : int }
  | Confirm

val rule_key : Rule.smartapp -> Rule.t -> string
(** ["<app name>/<rule id>"] — the key rules are known by at runtime. *)

val threat_keys : Threat.t -> string * string

val threat_id : Threat.t -> string
(** Stable id ["CAT:k1->k2"] (directional) or ["CAT:ka<->kb"]
    (symmetric, keys canonicalized) — independent of detection order. *)

val default_hop_budget : Threat.category -> int

val default_decision : Threat.t -> decision
(** Per-category recommendation: AR prioritizes rule1, GC blocks rule2,
    CT/SD break the chain immediately, LT allows two loop iterations,
    EC is allowed with logging, DC requires confirmation. *)

val describe : decision -> string

type store

val create : unit -> store
val set_by_id : store -> string -> decision -> unit
val explicit : store -> Threat.t -> decision option
val decision_for : store -> Threat.t -> decision
(** The explicit decision if one was recorded, else the default. *)

val decisions : store -> (string * decision) list
(** All explicit decisions, sorted by threat id. *)
