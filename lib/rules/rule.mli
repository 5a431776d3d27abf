(** Automation-rule intermediate representation (paper Listing 2):
    trigger, condition (data + predicate constraints) and actions, plus
    extracted-app metadata.

    Solver-variable naming convention used throughout the system:
    ["<inputVar>.<attribute>"] for device state, ["<inputVar>"] for user
    values, ["location.mode"], ["time.now"], ["env.<feature>"]. *)

module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term

type subject =
  | Device of string  (** the input variable binding the device *)
  | Location
  | App_touch

type trigger =
  | Event of { subject : subject; attribute : string; constraint_ : Formula.t }
  | Scheduled of { at_minutes : int option; period_seconds : int option }

type condition = {
  data : (string * Term.t) list;  (** path assignments [var := term] *)
  predicate : Formula.t;
}

type action_target =
  | Act_device of string
  | Act_location_mode
  | Act_messaging
  | Act_http
  | Act_hub

type action = {
  target : action_target;
  command : string;
  params : Term.t list;
  when_ : int;  (** delay in seconds *)
  period : int;  (** repetition interval in seconds *)
  action_data : (string * Term.t) list;
}

type t = {
  app_name : string;
  rule_id : string;
  trigger : trigger;
  condition : condition;
  actions : action list;
}

type input_decl = {
  var : string;
  input_type : string;
  title : string option;
  multiple : bool;
}

type smartapp = {
  name : string;
  description : string;
  inputs : input_decl list;
  rules : t list;
  uses_web_services : bool;
}

val subject_to_string : subject -> string
val target_to_string : action_target -> string

val capability_of_input : smartapp -> string -> string option
(** The capability an input variable was declared with. *)

val expanded_predicate : t -> Formula.t
(** The predicate with data constraints substituted away: free
    variables are exactly the state the rule genuinely tests. *)

val situation : t -> Formula.t
(** Trigger constraint ∧ data equalities ∧ predicate — the situation in
    which the rule takes effect (overlap detection, paper §VI-A2). *)

val var_domain :
  cap_of_var:(string -> string option) -> string -> Homeguard_solver.Domain.t option
(** The domain of a device-attribute variable ["base.attr"] from the
    capability registry: [location.mode], [time.*] and [env.*] have
    fixed domains, any other base is typed by its capability
    ([cap_of_var]) or, when it has none, by any capability declaring the
    attribute. [None] for a variable without an attribute or a type. *)
