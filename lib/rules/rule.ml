(** Automation-rule intermediate representation (paper Listing 2).

    A rule is a trigger-condition-action tuple. The trigger names the
    subscribed subject/attribute plus a constraint on the event value;
    the condition carries the data constraints (variable assignments
    accumulated along the execution path) and the predicate constraints
    (branch conditions); each action names the subject, the command, its
    parameters, a [when] delay and a repetition [period].

    Solver-variable naming convention used throughout:
    - ["<inputVar>.<attribute>"] — device attribute (e.g. "tv1.switch")
    - ["<inputVar>"] — user-supplied input value (e.g. "threshold1")
    - ["location.mode"] — the platform mode
    - ["time.now"] — minutes after midnight
    - ["env.<feature>"] — an environment feature measurement *)

module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term

(** Trigger/action subjects. Device subjects are identified by the
    [input] variable that binds them; the configuration recorder maps
    the variable to a concrete 128-bit device id at install time. *)
type subject =
  | Device of string  (** input variable name *)
  | Location  (** the platform location (mode changes) *)
  | App_touch  (** the mobile app's tap event *)

type trigger =
  | Event of { subject : subject; attribute : string; constraint_ : Formula.t }
      (** fires when [subject.attribute] changes; [constraint_] limits the
          event value ([True] when the rule fires on any state change) *)
  | Scheduled of { at_minutes : int option; period_seconds : int option }
      (** time-driven execution: [schedule]/[runOnce] (fixed time of day)
          or [runEveryN*] (period) *)

type condition = {
  data : (string * Term.t) list;
      (** assignments [var := term] recorded along the path *)
  predicate : Formula.t;  (** conjunction of branch conditions *)
}

type action_target =
  | Act_device of string  (** input variable naming the actuator *)
  | Act_location_mode  (** [setLocationMode] *)
  | Act_messaging  (** SMS / push notification *)
  | Act_http  (** outbound HTTP request *)
  | Act_hub  (** [sendHubCommand] *)

type action = {
  target : action_target;
  command : string;
  params : Term.t list;
  when_ : int;  (** delay in seconds before the command is issued (0 = now) *)
  period : int;  (** repetition interval in seconds (0 = once) *)
  action_data : (string * Term.t) list;
      (** quantitative constraints on command parameters *)
}

type t = {
  app_name : string;
  rule_id : string;  (** unique within a deployment: "<app>#<n>" *)
  trigger : trigger;
  condition : condition;
  actions : action list;
}

(** Declared app inputs (from [input] calls): the devices bound to the
    app and the user-specified values (paper's configuration info). *)
type input_decl = {
  var : string;
  input_type : string;  (** "capability.switch", "number", "mode", ... *)
  title : string option;
  multiple : bool;
}

(** A fully extracted SmartApp: metadata plus rules. *)
type smartapp = {
  name : string;
  description : string;
  inputs : input_decl list;
  rules : t list;
  uses_web_services : bool;
      (** web-services apps expose endpoints instead of defining rules *)
}

let subject_to_string = function
  | Device v -> v
  | Location -> "location"
  | App_touch -> "app"

let target_to_string = function
  | Act_device v -> v
  | Act_location_mode -> "location"
  | Act_messaging -> "messaging"
  | Act_http -> "http"
  | Act_hub -> "hub"

(** The capability an input variable was declared with, if any. *)
let capability_of_input app var =
  List.find_opt (fun i -> i.var = var) app.inputs
  |> fun o ->
  Option.bind o (fun i ->
      if String.length i.input_type > 11 && String.sub i.input_type 0 11 = "capability."
      then Some (String.sub i.input_type 11 (String.length i.input_type - 11))
      else None)

(** The condition predicate with data constraints substituted away:
    path-local temporaries are expanded to the source terms they bind,
    so the formula's free variables are exactly the device/input state
    the rule genuinely tests. *)
let expanded_predicate rule =
  List.fold_left
    (fun f (v, t) -> Formula.subst [ (v, t) ] f)
    rule.condition.predicate (List.rev rule.condition.data)

(** Combined trigger+condition formula of a rule — the "situation" in
    which it takes effect (used for overlap detection, paper §VI-A2). *)
let situation rule =
  let trig =
    match rule.trigger with
    | Event { constraint_; _ } -> constraint_
    | Scheduled _ -> Formula.True
  in
  let data_eqs =
    List.map (fun (v, t) -> Formula.eq (Term.Var v) t) rule.condition.data
  in
  Formula.conj ((trig :: data_eqs) @ [ rule.condition.predicate ])

(** The solver domain of a variable ["base.attr"] from the capability
    registry; [cap_of_var] gives an input's declared capability. *)
let var_domain ~cap_of_var var =
  let module Cap = Homeguard_st.Capability in
  let module Domain = Homeguard_solver.Domain in
  let of_cap_domain = function
    | Cap.Enum vs -> Domain.enums vs
    | Cap.Numeric (lo, hi) -> Domain.interval lo hi
  in
  match String.index_opt var '.' with
  | None -> None
  | Some i -> (
    let base = String.sub var 0 i in
    let attr = String.sub var (i + 1) (String.length var - i - 1) in
    if base = "location" && attr = "mode" then
      Some (Domain.enums ("Home" :: "Away" :: "Night" :: [ Homeguard_solver.Store.other_value ]))
    else if base = "time" then Some (Domain.interval 0 1439)
    else if base = "env" then Some (Domain.interval (-1000) 1_000_000)
    else
      match cap_of_var base with
      | Some cap_name ->
        Option.bind (Cap.find cap_name) (fun cap ->
            Option.map (fun a -> of_cap_domain a.Cap.domain) (Cap.attribute_of cap attr))
      | None ->
        (* untyped device var: derive from any capability declaring the
           attribute *)
        Option.map of_cap_domain (Cap.attribute_domain attr))
