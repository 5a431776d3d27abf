(** Symbolic values and path states for SmartApp symbolic execution.

    Sources (paper §V-B): device references, device attribute values,
    device events, user input, HTTP responses, constants, [state] /
    [atomicState] fields and modeled-API returns are all symbolic inputs.
    Numeric and string data are solver terms; boolean data are formulas
    (so branch conditions become path-condition conjuncts directly). *)

module Term = Homeguard_solver.Term
module Formula = Homeguard_solver.Formula
module Rule = Homeguard_rules.Rule
module SMap = Map.Make (String)

(** The distinguished variable standing for the triggering event's value
    inside a handler. Rule assembly substitutes it by the subscribed
    [subject.attribute] variable and sorts its atoms into the trigger
    constraint (paper §V-B "constraints for the trigger"). *)
let event_value_var = "@evt"

type value =
  | V_term of Term.t  (** numeric or string datum *)
  | V_bool of Formula.t  (** boolean datum as a formula *)
  | V_device of string  (** single device bound to an input variable *)
  | V_devices of string  (** [multiple: true] device collection *)
  | V_list of value list
  | V_map of (string * value) list
  | V_closure of string list * Homeguard_groovy.Ast.stmt list
  | V_method of string  (** reference to a handler method *)
  | V_location
  | V_event of { value : Term.t; name : string; device : string option }
  | V_null

(** Control-flow status of a path after executing a statement list. *)
type flow = F_normal | F_return of value | F_break | F_continue

type state = {
  env : value SMap.t;  (** local and input bindings *)
  state_obj : Term.t SMap.t;  (** [state.x] strong updates along the path *)
  pc : Formula.t list;  (** path condition, newest first *)
  data : (string * Term.t) list;  (** data constraints, newest first *)
  actions : Rule.action list;  (** sinks hit, newest first *)
  delay : int;  (** accumulated [runIn] delay in seconds *)
  period : int;  (** repetition period for successive sinks *)
  depth : int;  (** method-inlining depth *)
  flow : flow;
}

let initial_state =
  {
    env = SMap.empty;
    state_obj = SMap.empty;
    pc = [];
    data = [];
    actions = [];
    delay = 0;
    period = 0;
    depth = 0;
    flow = F_normal;
  }

let bind st var value = { st with env = SMap.add var value st.env }
let lookup st var = SMap.find_opt var st.env

let assume st f = match f with Formula.True -> st | f -> { st with pc = f :: st.pc }

let record_data st var term = { st with data = (var, term) :: st.data }

let record_action st action = { st with actions = action :: st.actions }

(** Groovy truthiness of a value, as a formula. Unknown string-typed
    symbols get a sentinel falsy witness so both branches stay
    satisfiable. *)
let truthiness = function
  | V_bool f -> f
  | V_term (Term.Int 0) -> Formula.False
  | V_term (Term.Int _) -> Formula.True
  | V_term (Term.Str "") -> Formula.False
  | V_term (Term.Str _) -> Formula.True
  | V_term (Term.Var v) -> Formula.neq (Term.Var v) (Term.Str "__falsy__")
  | V_term _ -> Formula.True
  | V_device _ | V_devices _ | V_location | V_event _ | V_method _ | V_closure _ -> Formula.True
  | V_list [] | V_map [] -> Formula.False
  | V_list _ | V_map _ -> Formula.True
  | V_null -> Formula.False

(** Coerce a value to a solver term where possible; opaque values get a
    fresh variable from [fresh]. *)
let to_term ~fresh = function
  | V_term t -> t
  | V_bool Formula.True -> Term.Str "true"
  | V_bool Formula.False -> Term.Str "false"
  | V_bool _ -> Term.Var (fresh "bool")
  | V_event { value; _ } -> value
  | V_device d -> Term.Str ("@device:" ^ d)
  | V_devices d -> Term.Str ("@devices:" ^ d)
  | V_method m -> Term.Str ("@method:" ^ m)
  | V_null -> Term.Str "null"
  | V_location -> Term.Str "@location"
  | V_list _ | V_map _ | V_closure _ -> Term.Var (fresh "opaque")

let lit_to_value (l : Homeguard_groovy.Ast.lit) =
  match l with
  | Homeguard_groovy.Ast.Int n -> V_term (Term.Int n)
  | Homeguard_groovy.Ast.Float f -> V_term (Term.Int (int_of_float (Float.round f)))
  | Homeguard_groovy.Ast.Str s -> V_term (Term.Str s)
  | Homeguard_groovy.Ast.Bool b -> V_bool (if b then Formula.True else Formula.False)
  | Homeguard_groovy.Ast.Null -> V_null
