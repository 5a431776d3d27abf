(** JSON (de)serialization of rules.

    Rule files are what the HomeGuard backend server stores per app and
    ships to the phone app (paper §VII-B, §VIII-C: ~6.2 KB per app). The
    encoding is lossless: [smartapp_of_json (smartapp_to_json a) = a]. *)

module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term

let rec term_to_json = function
  | Term.Int n -> Json.Obj [ ("int", Json.Int n) ]
  | Term.Str s -> Json.Obj [ ("str", Json.Str s) ]
  | Term.Var v -> Json.Obj [ ("var", Json.Str v) ]
  | Term.Add (a, b) -> Json.Obj [ ("add", Json.List [ term_to_json a; term_to_json b ]) ]
  | Term.Sub (a, b) -> Json.Obj [ ("sub", Json.List [ term_to_json a; term_to_json b ]) ]
  | Term.Mul (a, b) -> Json.Obj [ ("mul", Json.List [ term_to_json a; term_to_json b ]) ]
  | Term.Neg a -> Json.Obj [ ("neg", term_to_json a) ]

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

let rec term_of_json = function
  | Json.Obj [ ("int", Json.Int n) ] -> Term.Int n
  | Json.Obj [ ("str", Json.Str s) ] -> Term.Str s
  | Json.Obj [ ("var", Json.Str v) ] -> Term.Var v
  | Json.Obj [ ("add", Json.List [ a; b ]) ] -> Term.Add (term_of_json a, term_of_json b)
  | Json.Obj [ ("sub", Json.List [ a; b ]) ] -> Term.Sub (term_of_json a, term_of_json b)
  | Json.Obj [ ("mul", Json.List [ a; b ]) ] -> Term.Mul (term_of_json a, term_of_json b)
  | Json.Obj [ ("neg", a) ] -> Term.Neg (term_of_json a)
  | j -> fail "bad term: %s" (Json.to_string j)

let cmp_to_string = Formula.cmp_to_string

let cmp_of_string = function
  | "==" -> Formula.Eq
  | "!=" -> Formula.Neq
  | "<" -> Formula.Lt
  | "<=" -> Formula.Le
  | ">" -> Formula.Gt
  | ">=" -> Formula.Ge
  | s -> fail "bad comparator: %s" s

let rec formula_to_json = function
  | Formula.True -> Json.Obj [ ("true", Json.Null) ]
  | Formula.False -> Json.Obj [ ("false", Json.Null) ]
  | Formula.Atom (cmp, a, b) ->
    Json.Obj
      [
        ("cmp", Json.Str (cmp_to_string cmp)); ("lhs", term_to_json a); ("rhs", term_to_json b);
      ]
  | Formula.And fs -> Json.Obj [ ("and", Json.List (List.map formula_to_json fs)) ]
  | Formula.Or fs -> Json.Obj [ ("or", Json.List (List.map formula_to_json fs)) ]
  | Formula.Not f -> Json.Obj [ ("not", formula_to_json f) ]

let rec formula_of_json = function
  | Json.Obj [ ("true", Json.Null) ] -> Formula.True
  | Json.Obj [ ("false", Json.Null) ] -> Formula.False
  | Json.Obj [ ("cmp", Json.Str c); ("lhs", a); ("rhs", b) ] ->
    Formula.Atom (cmp_of_string c, term_of_json a, term_of_json b)
  | Json.Obj [ ("and", Json.List fs) ] -> Formula.And (List.map formula_of_json fs)
  | Json.Obj [ ("or", Json.List fs) ] -> Formula.Or (List.map formula_of_json fs)
  | Json.Obj [ ("not", f) ] -> Formula.Not (formula_of_json f)
  | j -> fail "bad formula: %s" (Json.to_string j)

let subject_to_json = function
  | Rule.Device v -> Json.Obj [ ("device", Json.Str v) ]
  | Rule.Location -> Json.Obj [ ("location", Json.Null) ]
  | Rule.App_touch -> Json.Obj [ ("app", Json.Null) ]

let subject_of_json = function
  | Json.Obj [ ("device", Json.Str v) ] -> Rule.Device v
  | Json.Obj [ ("location", Json.Null) ] -> Rule.Location
  | Json.Obj [ ("app", Json.Null) ] -> Rule.App_touch
  | j -> fail "bad subject: %s" (Json.to_string j)

let trigger_to_json = function
  | Rule.Event { subject; attribute; constraint_ } ->
    Json.Obj
      [
        ("subject", subject_to_json subject);
        ("attribute", Json.Str attribute);
        ("constraint", formula_to_json constraint_);
      ]
  | Rule.Scheduled { at_minutes; period_seconds } ->
    Json.Obj
      [
        ("at", match at_minutes with Some m -> Json.Int m | None -> Json.Null);
        ("period", match period_seconds with Some p -> Json.Int p | None -> Json.Null);
      ]

let trigger_of_json = function
  | Json.Obj [ ("subject", s); ("attribute", Json.Str a); ("constraint", c) ] ->
    Rule.Event { subject = subject_of_json s; attribute = a; constraint_ = formula_of_json c }
  | Json.Obj [ ("at", at); ("period", period) ] ->
    let opt_int = function Json.Int n -> Some n | _ -> None in
    Rule.Scheduled { at_minutes = opt_int at; period_seconds = opt_int period }
  | j -> fail "bad trigger: %s" (Json.to_string j)

let data_to_json data =
  Json.List (List.map (fun (v, t) -> Json.Obj [ ("var", Json.Str v); ("val", term_to_json t) ]) data)

let data_of_json = function
  | Json.List items ->
    List.map
      (function
        | Json.Obj [ ("var", Json.Str v); ("val", t) ] -> (v, term_of_json t)
        | j -> fail "bad data constraint: %s" (Json.to_string j))
      items
  | j -> fail "bad data constraints: %s" (Json.to_string j)

let target_to_json = function
  | Rule.Act_device v -> Json.Obj [ ("device", Json.Str v) ]
  | Rule.Act_location_mode -> Json.Obj [ ("mode", Json.Null) ]
  | Rule.Act_messaging -> Json.Obj [ ("messaging", Json.Null) ]
  | Rule.Act_http -> Json.Obj [ ("http", Json.Null) ]
  | Rule.Act_hub -> Json.Obj [ ("hub", Json.Null) ]

let target_of_json = function
  | Json.Obj [ ("device", Json.Str v) ] -> Rule.Act_device v
  | Json.Obj [ ("mode", Json.Null) ] -> Rule.Act_location_mode
  | Json.Obj [ ("messaging", Json.Null) ] -> Rule.Act_messaging
  | Json.Obj [ ("http", Json.Null) ] -> Rule.Act_http
  | Json.Obj [ ("hub", Json.Null) ] -> Rule.Act_hub
  | j -> fail "bad target: %s" (Json.to_string j)

let action_to_json (a : Rule.action) =
  Json.Obj
    [
      ("target", target_to_json a.target);
      ("command", Json.Str a.command);
      ("params", Json.List (List.map term_to_json a.params));
      ("when", Json.Int a.when_);
      ("period", Json.Int a.period);
      ("data", data_to_json a.action_data);
    ]

let action_of_json = function
  | Json.Obj
      [
        ("target", t);
        ("command", Json.Str c);
        ("params", Json.List ps);
        ("when", Json.Int w);
        ("period", Json.Int p);
        ("data", d);
      ] ->
    {
      Rule.target = target_of_json t;
      command = c;
      params = List.map term_of_json ps;
      when_ = w;
      period = p;
      action_data = data_of_json d;
    }
  | j -> fail "bad action: %s" (Json.to_string j)

let rule_to_json (r : Rule.t) =
  Json.Obj
    [
      ("app", Json.Str r.app_name);
      ("id", Json.Str r.rule_id);
      ("trigger", trigger_to_json r.trigger);
      ( "condition",
        Json.Obj
          [
            ("data", data_to_json r.condition.data);
            ("predicate", formula_to_json r.condition.predicate);
          ] );
      ("actions", Json.List (List.map action_to_json r.actions));
    ]

let rule_of_json = function
  | Json.Obj
      [
        ("app", Json.Str app);
        ("id", Json.Str id);
        ("trigger", t);
        ("condition", Json.Obj [ ("data", d); ("predicate", p) ]);
        ("actions", Json.List actions);
      ] ->
    {
      Rule.app_name = app;
      rule_id = id;
      trigger = trigger_of_json t;
      condition = { Rule.data = data_of_json d; predicate = formula_of_json p };
      actions = List.map action_of_json actions;
    }
  | j -> fail "bad rule: %s" (Json.to_string j)

let input_to_json (i : Rule.input_decl) =
  Json.Obj
    [
      ("var", Json.Str i.var);
      ("type", Json.Str i.input_type);
      ("title", match i.title with Some t -> Json.Str t | None -> Json.Null);
      ("multiple", Json.Bool i.multiple);
    ]

let input_of_json = function
  | Json.Obj
      [ ("var", Json.Str v); ("type", Json.Str t); ("title", title); ("multiple", Json.Bool m) ]
    ->
    {
      Rule.var = v;
      input_type = t;
      title = (match title with Json.Str s -> Some s | _ -> None);
      multiple = m;
    }
  | j -> fail "bad input: %s" (Json.to_string j)

let smartapp_to_json (app : Rule.smartapp) =
  Json.Obj
    [
      ("name", Json.Str app.name);
      ("description", Json.Str app.description);
      ("inputs", Json.List (List.map input_to_json app.inputs));
      ("rules", Json.List (List.map rule_to_json app.rules));
      ("webServices", Json.Bool app.uses_web_services);
    ]

let smartapp_of_json = function
  | Json.Obj
      [
        ("name", Json.Str name);
        ("description", Json.Str description);
        ("inputs", Json.List inputs);
        ("rules", Json.List rules);
        ("webServices", Json.Bool ws);
      ] ->
    {
      Rule.name;
      description;
      inputs = List.map input_of_json inputs;
      rules = List.map rule_of_json rules;
      uses_web_services = ws;
    }
  | j -> fail "bad smartapp: %s" (Json.to_string j)

(** Serialize an extracted app to its rule-file string. *)
let to_string app = Json.to_string (smartapp_to_json app)

(** Parse a rule-file string. *)
let of_string s =
  match Json.of_string s with
  | Ok j -> smartapp_of_json j
  | Error m -> fail "unparseable rule file: %s" m
