(** Interference channels between an action and another rule's
    trigger/condition.

    Two ways a rule's action reaches another rule (paper §VI-B, §VI-C):
    (1) directly, by writing a device attribute (or the location mode)
    the other rule subscribes to or tests; (2) through the environment,
    by changing a feature some sensor measures. This module computes the
    attribute writes and the sensed-variable matches. *)

module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term
module Formula = Homeguard_solver.Formula
module Capability = Homeguard_st.Capability
module Env = Homeguard_st.Env_feature

(** An attribute write performed by an action: on device variable [var]
    (of the acting app), attribute [attr], to [value] if statically
    fixed. *)
type attr_write = { w_target : Rule.action_target; w_attr : string; w_value : Term.t option }

(** [attribute_writes app action] — the direct state changes an action
    makes (way 1). *)
let attribute_writes (app : Rule.smartapp) (action : Rule.action) : attr_write list =
  match action.Rule.target with
  | Rule.Act_location_mode ->
    let value = match action.Rule.params with v :: _ -> Some v | [] -> None in
    [ { w_target = action.Rule.target; w_attr = "mode"; w_value = value } ]
  | Rule.Act_messaging | Rule.Act_http | Rule.Act_hub -> []
  | Rule.Act_device var -> (
    let caps =
      match Rule.capability_of_input app var with
      | Some cap_name -> ( match Capability.find cap_name with Some c -> [ c ] | None -> [])
      | None -> Capability.capabilities_with_command action.Rule.command
    in
    match
      List.find_map
        (fun cap ->
          Option.bind (Capability.command_of cap action.Rule.command) (fun c ->
              c.Capability.writes))
        caps
    with
    | Some { Capability.target_attr; fixed_value } ->
      let value =
        match fixed_value with
        | Some v -> Some (Term.Str v)
        | None -> ( match action.Rule.params with p :: _ -> Some p | [] -> None)
      in
      [ { w_target = action.Rule.target; w_attr = target_attr; w_value = value } ]
    | None -> [])

(** Environment features an action perturbs, with direction. *)
let environment_effects = Effects.effects_of_action

(** The environment feature a trigger subscription senses, if its
    subject attribute is an environment measurement. *)
let sensed_feature_of_trigger (trigger : Rule.trigger) =
  match trigger with
  | Rule.Event { attribute; _ } -> Env.of_sensor_attribute attribute
  | Rule.Scheduled _ -> None

(** Does a variable's attribute (the part after its last '.', if any)
    sense the given environment feature? *)
let attr_senses feature = function
  | Some attr -> Env.of_sensor_attribute attr = Some feature
  | None -> false

(** How a formula constrains a variable: which direction of change could
    satisfy (or violate) it. Derived from the comparison atoms that
    mention the variable. *)
type direction_need = Needs_high | Needs_low | Needs_value of Term.t | Needs_any

let direction_needs formula var =
  (* NNF first so negations are folded into comparators and the atom
     directions below are literal *)
  let formula = Formula.nnf formula in
  let needs = ref [] in
  let note n = if not (List.mem n !needs) then needs := n :: !needs in
  let rec go = function
    | Formula.True | Formula.False -> ()
    | Formula.Atom (cmp, a, b) -> (
      match (a, b) with
      | Term.Var v, other when v = var -> (
        match cmp with
        | Formula.Gt | Formula.Ge -> note Needs_high
        | Formula.Lt | Formula.Le -> note Needs_low
        | Formula.Eq -> note (Needs_value other)
        | Formula.Neq -> note Needs_any)
      | other, Term.Var v when v = var -> (
        match cmp with
        | Formula.Gt | Formula.Ge -> note Needs_low
        | Formula.Lt | Formula.Le -> note Needs_high
        | Formula.Eq -> note (Needs_value other)
        | Formula.Neq -> note Needs_any)
      | _ ->
        if List.mem var (Term.free_vars a) || List.mem var (Term.free_vars b) then
          note Needs_any)
    | Formula.And fs | Formula.Or fs -> List.iter go fs
    | Formula.Not f -> go f
  in
  go formula;
  !needs

(** Can a change of [polarity] on [var] help satisfy [formula]? True
    when some atom wants the direction the effect pushes, or when the
    constraint shape is too complex to rule it out. *)
let polarity_can_satisfy formula var (polarity : Effects.polarity) =
  match direction_needs formula var with
  | [] -> false
  | needs ->
    List.exists
      (fun n ->
        match (n, polarity) with
        | Needs_high, Effects.Incr | Needs_low, Effects.Decr -> true
        | Needs_value _, _ | Needs_any, _ -> true
        | Needs_high, Effects.Decr | Needs_low, Effects.Incr -> false)
      needs
