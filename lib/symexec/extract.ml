(** Rule extraction: SmartApp source → {!Homeguard_rules.Rule.smartapp}.

    Pipeline (paper §V): parse the app, collect [input] declarations and
    metadata from the AST, symbolically execute the lifecycle entry
    points to find subscriptions and schedules, then symbolically execute
    every handler, turning each completed path that reached a sink into a
    rule. Atoms over the event value form the trigger constraint; the
    rest of the path condition forms the condition predicate. *)

module Ast = Homeguard_groovy.Ast
module Term = Homeguard_solver.Term
module Formula = Homeguard_solver.Formula
module Rule = Homeguard_rules.Rule
open Symval

type diagnostics = {
  truncated : bool;  (** path budget exhausted somewhere *)
  unknown_calls : string list;  (** unmodeled APIs encountered *)
}

type result = { app : Rule.smartapp; diags : diagnostics }

exception Extraction_error of string

(* -- metadata scanning ---------------------------------------------------- *)

let string_of_expr_opt = function Ast.Lit (Ast.Str s) -> Some s | _ -> None

let scan_inputs prog =
  List.filter_map
    (fun (recv, name, args) ->
      if recv <> None || name <> "input" then None
      else
        let pos = List.filter_map (function Ast.Pos e -> Some e | _ -> None) args in
        let named k =
          List.find_map (function Ast.Named (k', e) when k' = k -> Some e | _ -> None) args
        in
        match pos with
        | var_e :: ty_e :: _ -> (
          match (string_of_expr_opt var_e, string_of_expr_opt ty_e) with
          | Some var, Some input_type ->
            Some
              {
                Rule.var;
                input_type;
                title = Option.bind (named "title") string_of_expr_opt;
                multiple =
                  (match named "multiple" with
                  | Some (Ast.Lit (Ast.Bool b)) -> b
                  | _ -> false);
              }
          | _ -> None)
        | _ -> None)
    (Ast.all_calls prog)

let scan_metadata prog =
  let name = ref None and description = ref None in
  List.iter
    (fun (recv, call_name, args) ->
      if recv = None && call_name = "definition" then
        List.iter
          (function
            | Ast.Named ("name", e) -> name := string_of_expr_opt e
            | Ast.Named ("description", e) -> description := string_of_expr_opt e
            | _ -> ())
          args)
    (Ast.all_calls prog);
  (!name, !description)

let uses_web_services prog =
  List.exists (fun (recv, name, _) -> recv = None && name = "mappings") (Ast.all_calls prog)

(* -- rule assembly -------------------------------------------------------- *)

(* Split the path condition into event-value atoms (trigger constraint)
   and the rest (condition predicate); substitute the event variable by
   the subscribed subject.attribute variable. *)
let split_path_condition subject_var pc_conjuncts =
  let mentions_event f = List.mem event_value_var (Formula.free_vars f) in
  let sub = [ (event_value_var, Term.Var subject_var) ] in
  let pc_conjuncts = List.concat_map Formula.conjuncts pc_conjuncts in
  let trigger_atoms, condition_atoms = List.partition mentions_event pc_conjuncts in
  ( Formula.conj (List.map (Formula.subst sub) trigger_atoms),
    Formula.conj (List.map (Formula.subst sub) condition_atoms) )

let subject_attribute_var subject attribute =
  match subject with
  | Rule.Device d -> d ^ "." ^ attribute
  | Rule.Location -> if attribute = "mode" then "location.mode" else "location." ^ attribute
  | Rule.App_touch -> "app.touch"

let substitute_data sub data = List.map (fun (v, t) -> (v, Term.subst sub t)) data

let substitute_action sub (a : Rule.action) =
  {
    a with
    Rule.params = List.map (Term.subst sub) a.params;
    action_data = substitute_data sub a.action_data;
  }

let rules_of_event_paths ~app_name ~counter subscription finals =
  let { Exec.sub_subject; sub_attribute; sub_value; _ } = subscription in
  let subject_var = subject_attribute_var sub_subject sub_attribute in
  let sub = [ (event_value_var, Term.Var subject_var) ] in
  List.filter_map
    (fun (st : state) ->
      match st.actions with
      | [] -> None
      | actions ->
        let trigger_f, condition_f = split_path_condition subject_var (List.rev st.pc) in
        let explicit =
          match sub_value with
          | Some v -> Formula.eq (Term.Var subject_var) (Term.Str v)
          | None -> Formula.True
        in
        incr counter;
        Some
          {
            Rule.app_name;
            rule_id = Printf.sprintf "%s#%d" app_name !counter;
            trigger =
              Rule.Event
                {
                  subject = sub_subject;
                  attribute = sub_attribute;
                  constraint_ = Formula.conj [ explicit; trigger_f ];
                };
            condition =
              { Rule.data = substitute_data sub (List.rev st.data); predicate = condition_f };
            actions = List.rev_map (substitute_action sub) actions;
          })
    finals

let rules_of_scheduled_paths ~app_name ~counter (sched : Exec.schedule) finals =
  List.filter_map
    (fun (st : state) ->
      match st.actions with
      | [] -> None
      | actions ->
        incr counter;
        Some
          {
            Rule.app_name;
            rule_id = Printf.sprintf "%s#%d" app_name !counter;
            trigger =
              Rule.Scheduled
                { at_minutes = sched.Exec.sched_at; period_seconds = sched.Exec.sched_period };
            condition = { Rule.data = List.rev st.data; predicate = Formula.conj (List.rev st.pc) };
            actions = List.rev actions;
          })
    finals

(* Structural rule deduplication ignoring rule ids. *)
let dedup_rules rules =
  let strip (r : Rule.t) = { r with Rule.rule_id = "" } in
  let rec go seen acc = function
    | [] -> List.rev acc
    | r :: rest ->
      let key = strip r in
      if List.mem key seen then go seen acc rest else go (key :: seen) (r :: acc) rest
  in
  go [] [] rules

(* -- main entry ----------------------------------------------------------- *)

(** Extract rules from parsed SmartApp source. [name] overrides the
    metadata name (useful when the definition block is omitted). *)
let extract_program ?name prog =
  let meta_name, meta_desc = scan_metadata prog in
  let app_name =
    match (name, meta_name) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> "unnamed"
  in
  let inputs = scan_inputs prog in
  let ctx =
    {
      Exec.prog;
      inputs;
      subs = ref [];
      schedules = ref [];
      fresh_counter = ref 0;
      unknown_calls = ref [];
      paths = ref 0;
      in_setup = true;
    }
  in
  let truncated = ref false in
  let guarded f = try f () with Exec.Path_budget -> truncated := true; [] in
  (* Phase 1: execute entry points to collect subscriptions/schedules. *)
  let base = Exec.bind_inputs ctx initial_state in
  List.iter
    (fun entry ->
      match Ast.find_method prog entry with
      | Some m -> ignore (guarded (fun () -> Exec.exec_stmts ctx base m.Ast.body))
      | None -> ())
    [ "installed"; "updated" ];
  (* Phase 2: execute every handler. *)
  let handler_ctx = { ctx with Exec.in_setup = false } in
  let counter = ref 0 in
  let event_rules =
    List.concat_map
      (fun (sub : Exec.subscription) ->
        match Ast.find_method prog sub.Exec.sub_handler with
        | None -> []
        | Some m ->
          let evt =
            V_event
              {
                value = Term.Var event_value_var;
                name = sub.Exec.sub_attribute;
                device =
                  (match sub.Exec.sub_subject with Rule.Device d -> Some d | _ -> None);
              }
          in
          let st =
            match m.Ast.params with
            | p :: _ -> bind base p evt
            | [] -> bind base "evt" evt
          in
          handler_ctx.Exec.paths := 0;
          let finals = guarded (fun () -> Exec.exec_stmts handler_ctx st m.Ast.body) in
          rules_of_event_paths ~app_name ~counter sub finals)
      (List.rev !(ctx.Exec.subs))
  in
  let scheduled_rules =
    List.concat_map
      (fun (sched : Exec.schedule) ->
        match Ast.find_method prog sched.Exec.sched_handler with
        | None -> []
        | Some m ->
          handler_ctx.Exec.paths := 0;
          let finals = guarded (fun () -> Exec.exec_stmts handler_ctx base m.Ast.body) in
          rules_of_scheduled_paths ~app_name ~counter sched finals)
      (List.rev !(ctx.Exec.schedules))
  in
  let app =
    {
      Rule.name = app_name;
      description = (match meta_desc with Some d -> d | None -> "");
      inputs;
      rules = dedup_rules (event_rules @ scheduled_rules);
      uses_web_services = uses_web_services prog;
    }
  in
  {
    app;
    diags =
      {
        truncated = !truncated;
        unknown_calls = List.rev !(ctx.Exec.unknown_calls);
      };
  }

(** Parse and extract from source text. *)
let extract_source ?name src =
  match Homeguard_groovy.Parser.parse src with
  | prog -> extract_program ?name prog
  | exception Homeguard_groovy.Parser.Error (msg, line) ->
    raise (Extraction_error (Printf.sprintf "parse error at line %d: %s" line msg))
  | exception Homeguard_groovy.Lexer.Error (msg, line) ->
    raise (Extraction_error (Printf.sprintf "lex error at line %d: %s" line msg))
