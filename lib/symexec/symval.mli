(** Symbolic values and path states for SmartApp symbolic execution
    (paper §V-B: sources are devices, attribute values, events, user
    input, HTTP responses, constants and [state] fields). *)

module Term = Homeguard_solver.Term
module Formula = Homeguard_solver.Formula
module Rule = Homeguard_rules.Rule
module SMap : Map.S with type key = string

val event_value_var : string
(** The distinguished variable standing for the triggering event's value
    inside a handler; rule assembly substitutes and sorts its atoms into
    the trigger constraint. *)

type value =
  | V_term of Term.t
  | V_bool of Formula.t
  | V_device of string
  | V_devices of string
  | V_list of value list
  | V_map of (string * value) list
  | V_closure of string list * Homeguard_groovy.Ast.stmt list
  | V_method of string
  | V_location
  | V_event of { value : Term.t; name : string; device : string option }
  | V_null

type flow = F_normal | F_return of value | F_break | F_continue

type state = {
  env : value SMap.t;
  state_obj : Term.t SMap.t;
  pc : Formula.t list;  (** path condition, newest first *)
  data : (string * Term.t) list;
  actions : Rule.action list;
  delay : int;
  period : int;
  depth : int;
  flow : flow;
}

val initial_state : state
val bind : state -> string -> value -> state
val lookup : state -> string -> value option
val assume : state -> Formula.t -> state
val record_data : state -> string -> Term.t -> state
val record_action : state -> Rule.action -> state

val truthiness : value -> Formula.t
(** Groovy truthiness as a formula; unknown string symbols get a
    sentinel falsy witness so both branches stay satisfiable. *)

val to_term : fresh:(string -> string) -> value -> Term.t
val lit_to_value : Homeguard_groovy.Ast.lit -> value
