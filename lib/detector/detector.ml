(** The CAI threat detection engine (paper §VI).

    Pairwise analysis of rules: candidate filtering against the action/
    channel maps, then overlapping-condition detection as constraint
    satisfaction. Solver results are memoized per rule pair so CT/SD/LT
    reuse the AR solve and DC reuses the EC solve (Fig 9's green lines);
    pass [~reuse:false] to measure the unmemoized cost (ablation A1). *)

module Rule = Homeguard_rules.Rule
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
module Solver = Homeguard_solver.Solver
module Store = Homeguard_solver.Store
module Domain = Homeguard_solver.Domain
module Budget = Homeguard_solver.Budget
module Capability = Homeguard_st.Capability
module Env = Homeguard_st.Env_feature

type tagged_rule = Rule.smartapp * Rule.t

(** One detector solve, described to an external (fleet-shared) verdict
    cache. The formula and store are exactly what {!budgeted_solve}
    would receive — the cache must return exactly what a concrete solve
    would, so construction here is byte-identical to the uncached path.
    [q_bindings] names the per-home configuration-value equalities that
    appear in the formula (qualified, post-unification), so the cache
    can abstract them into equivalence-class cells. *)
type solve_query = {
  q_kind : string;  (** "sit" | "cond" | "ct" | "fx" — debug partition *)
  q_apps : string * string;  (** order-normalized app-pair identity *)
  q_formula : Homeguard_solver.Formula.t;
  q_store : Homeguard_solver.Store.t;
  q_bindings : (string * Term.t) list;
  q_fingerprint : string;  (** {!solve_fingerprint} of the ctx config *)
}

(** One whole app-pair audit, described to an external pair-result
    cache. Unlike {!solve_query} this sits above planning: a hit skips
    the candidate pre-filters *and* every per-category analysis for the
    pair, so it is keyed on everything those depend on — both apps'
    full rule structure, both apps' configuration bindings and the
    solve fingerprint. The pair is in home install order (detection is
    orientation-sensitive: threats name the apps in argument order). *)
type pair_audit = {
  pa_apps : Rule.smartapp * Rule.smartapp;
  pa_bindings : (string * Term.t) list * (string * Term.t) list;
      (** [app_constraints] of each app, same order as [pa_apps] *)
  pa_unify : (string * string) list;
      (** the same-device relation over the two apps' device inputs
          (input-declaration order) — everything detection asks
          [config.same_device], so two homes with the same apps but
          different device assignments never share a key *)
  pa_fingerprint : string;  (** {!pair_fingerprint} of the ctx config *)
}

type pair_matrix = Threat.t list array array
(** Threats per rule pair: [m.(i).(j)] is [detect_pair] of the first
    app's rule [i] against the second app's rule [j]. *)

type pair_cache = {
  pair_lookup : pair_audit -> pair_matrix option;
  pair_store : pair_audit -> pair_matrix -> unit;
}

(* One input variable as the device relation sees it: the app, the var
   and, for a declared capability input, its capability and device
   class. [app_facts] derives the descriptor once per declared input. *)
type device_input = {
  di_app : Rule.smartapp;
  di_var : string;
  di_device : (string * Effects.device_class) option;
      (** capability and device class; [None] for a var that is not a
          declared capability input *)
}

type config = {
  same_device : device_input -> device_input -> bool;
      (** do two input variables denote the same device? *)
  app_constraints : Rule.smartapp -> (string * Term.t) list;
      (** configuration values: user-input variable bindings *)
  reuse : bool;  (** memoize constraint solving across threat types *)
  budget : Budget.spec;
      (** per-solve resource budget; an exhausted solve is retried once
          with {!Budget.escalate} and then surfaced as [Undecided] *)
  escalate : bool;
      (** retry exhausted solves once with an 8x budget. Disable for
          deadline-derived budgets ({!Budget.of_deadline}): escalating a
          wall-clock timeout would let one solve outlive the request
          deadline it was cut from *)
  shared_cache : (solve_query -> (unit -> Solver.verdict) -> Solver.verdict) option;
      (** fleet-shared verdict cache hook: called with the query and the
          concrete compute thunk; must return either the thunk's result
          or a cached verdict byte-identical to what the thunk would
          produce. [None] (default) solves everything locally. *)
  pair_cache : pair_cache option;
      (** pair-level result cache: [audit_all] groups its plan by app
          pair and a lookup hit replaces planning and detection for the
          whole pair. A hit must be byte-identical to what the grouped
          compute would produce. [None] (default) plans flat. *)
}

(** Offline corpus mode: two inputs denote the same device when they
    share a capability, with [capability.switch] disambiguated by device
    class from titles/descriptions (paper §VIII-B). A generic,
    unclassifiable switch may be bound to any switch device, so it
    matches every switch class (this is what lets Energy Saver's generic
    "devices to turn off" disable It's Too Hot's air conditioner). *)
let offline_same_device d1 d2 =
  match (d1.di_device, d2.di_device) with
  | Some (c1, cls1), Some (c2, cls2) when c1 = c2 ->
    if c1 = "switch" || c1 = "switchLevel" then
      cls1 = cls2 || cls1 = Effects.Generic_switch || cls2 = Effects.Generic_switch
    else true
  | _ -> false

(* The descriptor of [var], derived directly from the app's input
   declarations: capability first, device class only for a capability
   input. *)
let device_input (app : Rule.smartapp) var =
  {
    di_app = app;
    di_var = var;
    di_device =
      Option.map (fun cap -> (cap, Effects.classify app var)) (Rule.capability_of_input app var);
  }

let offline_config =
  {
    same_device = offline_same_device;
    app_constraints = (fun _ -> []);
    reuse = true;
    budget = Budget.default_spec;
    escalate = true;
    shared_cache = None;
    pair_cache = None;
  }

(* The one cache-key fingerprint shared by the in-process overlap cache
   and any fleet-wide verdict cache behind [shared_cache]: budget tier
   (PR 2), solver A/B flags (PR 6), and whether escalation retries are
   on. Anything that can change what a solve returns must be in here. *)
let solve_fingerprint config =
  Budget.cache_fingerprint config.budget
  ^ ";" ^ Solver.flags_fingerprint ()
  ^ (if config.escalate then ";e1" else ";e0")

(* Pair-tier fingerprint: the solve fingerprint plus the memoization
   switch. [reuse] cannot change a verdict, but it can change which
   solver results back a witness, and pair-cache hits must be
   byte-identical to the grouped compute — so it keys. *)
let pair_fingerprint config =
  solve_fingerprint config ^ (if config.reuse then ";r1" else ";r0")

(* Solver-free planning facts of one app, derived once per ctx: the
   planner's pre-filters and every detector then read them instead of
   re-deriving device classes, channel maps and expanded conditions for
   each rule pair an app takes part in. *)
type action_facts = {
  af_action : Rule.action;
  af_writes : Channels.attr_write list;
  af_effects : (Env.t * Effects.polarity) list;
}

type rule_facts = {
  rf_rule : Rule.t;
  rf_actions : action_facts list;
  rf_sensed : Env.t option;
  rf_cond : Formula.t;
  rf_cond_vars : (string * string * string option) list;
}

type app_facts = {
  app_inputs : device_input list;
  app_rules : rule_facts list;
}

(* Per-ctx memo tables: app facts by app name (unique within an audit),
   plus the config-dependent same-device relation and the
   command-opposition map. Every worker domain owns its own ctx, so the
   tables need no locking. *)
type caches = {
  unify_pairs_c : (string * string, (string * string) list) Hashtbl.t;
  facts_c : (string, app_facts) Hashtbl.t;
  opposite_cmds_c : (string * string, bool) Hashtbl.t;
}

let create_caches () =
  {
    unify_pairs_c = Hashtbl.create 64;
    facts_c = Hashtbl.create 64;
    opposite_cmds_c = Hashtbl.create 64;
  }

type ctx = {
  config : config;
  overlap_cache : (string * string, Solver.verdict) Hashtbl.t;
      (** keys carry the budget fingerprint: an [Unknown] cached under a
          small budget can never answer for a larger one *)
  caches : caches;  (** memoized solver-free planning facts *)
  fingerprint : string;  (** {!solve_fingerprint} of [config], memoized *)
  pair_fp : string;  (** {!pair_fingerprint} of [config], memoized *)
  mutable solver_calls : int;  (** number of actual constraint solves *)
  mutable escalations : int;  (** undecided solves retried with a bigger budget *)
  mutable undecided_solves : int;  (** solves still undecided after escalation *)
}

(* [?caches] shares planning facts and same-device relations across
   ctxs: sound only when every sharing config's [same_device] behaves
   identically (a shared relation was asked of the config of the ctx
   that made it; the facts are config-independent) and equal app names
   mean equal apps, and only from one domain at a time — the tables are
   unsynchronized. Fleet sweeps over many homes in one matching mode
   amortize fact derivation this way. *)
let create ?caches config =
  {
    config;
    overlap_cache = Hashtbl.create 64;
    caches = (match caches with Some c -> c | None -> create_caches ());
    fingerprint = solve_fingerprint config;
    pair_fp = pair_fingerprint config;
    solver_calls = 0;
    escalations = 0;
    undecided_solves = 0;
  }

let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.add tbl key v;
    v

(* Split a variable "v.attr" (or "App::v.attr") into its base and
   attribute. *)
let split_attr var =
  match String.rindex_opt var '.' with
  | Some i -> (String.sub var 0 i, Some (String.sub var (i + 1) (String.length var - i - 1)))
  | None -> (var, None)

let action_facts (app : Rule.smartapp) inputs (a : Rule.action) =
  let effects =
    match a.Rule.target with
    | Rule.Act_device var -> (
      match List.find_opt (fun d -> d.di_var = var) inputs with
      | Some { di_device = Some (_, cls); _ } -> Effects.device_effects cls a
      | _ -> Effects.effects_of_action app a)
    | _ -> Effects.effects_of_action app a
  in
  { af_action = a; af_writes = Channels.attribute_writes app a; af_effects = effects }

let rule_facts_of (app : Rule.smartapp) inputs (r : Rule.t) =
  let cond = Rule.expanded_predicate r in
  {
    rf_rule = r;
    rf_actions = List.map (action_facts app inputs) r.Rule.actions;
    rf_sensed = Channels.sensed_feature_of_trigger r.Rule.trigger;
    rf_cond = cond;
    rf_cond_vars =
      List.map
        (fun v ->
          let base, attr = split_attr v in
          (v, base, attr))
        (Formula.free_vars cond);
  }

let app_facts_of (app : Rule.smartapp) =
  let inputs =
    List.filter_map
      (fun (i : Rule.input_decl) ->
        let d = device_input app i.Rule.var in
        if d.di_device = None then None else Some d)
      app.Rule.inputs
  in
  { app_inputs = inputs; app_rules = List.map (rule_facts_of app inputs) app.Rule.rules }

let app_facts ctx (app : Rule.smartapp) =
  memo ctx.caches.facts_c app.Rule.name (fun () -> app_facts_of app)

(* A rule's facts, found by identity among its app's rules; a rule from
   outside the app's rule list gets fresh, uncached facts. *)
let rule_facts ctx ((app, r) : tagged_rule) =
  let facts = app_facts ctx app in
  match List.find_opt (fun rf -> rf.rf_rule == r) facts.app_rules with
  | Some rf -> rf
  | None -> rule_facts_of app facts.app_inputs r

(* The descriptor of [var] among an app's facts: a declared capability
   input's precomputed one, or a bare one for any other var. *)
let input_of (app : Rule.smartapp) facts var =
  match List.find_opt (fun d -> d.di_var = var) facts.app_inputs with
  | Some d -> d
  | None -> { di_app = app; di_var = var; di_device = None }

(* The device matcher between two apps: [same_device ctx app1 app2 v1
   v2] finds both vars' descriptors among the apps' facts and asks
   [config.same_device] of them — no per-cell derivation. *)
let same_device ctx (app1 : Rule.smartapp) (app2 : Rule.smartapp) =
  let f1 = app_facts ctx app1 and f2 = app_facts ctx app2 in
  fun v1 v2 -> ctx.config.same_device (input_of app1 f1 v1) (input_of app2 f2 v2)

let commands_opposite ctx c1 c2 =
  memo ctx.caches.opposite_cmds_c (c1, c2) (fun () ->
      List.exists
        (fun cap -> Capability.contradicts cap c1 c2)
        (Capability.capabilities_with_command c1))

(* Every detector solve goes through here: run under the configured
   budget and, if the verdict is Unknown, retry once with an escalated
   budget before surfacing the undecided answer. *)
let budgeted_solve ctx store f : Solver.verdict =
  ctx.solver_calls <- ctx.solver_calls + 1;
  match Solver.solve ~budget:(Budget.start ctx.config.budget) store f with
  | Budget.Unknown _ as verdict when not ctx.config.escalate ->
    ctx.undecided_solves <- ctx.undecided_solves + 1;
    verdict
  | Budget.Unknown _ ->
    ctx.escalations <- ctx.escalations + 1;
    ctx.solver_calls <- ctx.solver_calls + 1;
    let retry =
      Solver.solve ~budget:(Budget.start (Budget.escalate ctx.config.budget)) store f
    in
    (match retry with
    | Budget.Unknown _ -> ctx.undecided_solves <- ctx.undecided_solves + 1
    | _ -> ());
    retry
  | verdict -> verdict

let undecided_severity reason = Threat.Undecided (Budget.reason_to_string reason)

(* -- variable qualification and unification ------------------------------ *)

let is_shared_var var =
  var = "location.mode" || var = "app.touch"
  || (String.length var > 5 && String.sub var 0 5 = "time.")
  || (String.length var > 4 && String.sub var 0 4 = "env.")

let qualify app_name var = if is_shared_var var then var else app_name ^ "::" ^ var

(* The same-device relation over two apps' device inputs, in
   input-declaration order. *)
let unify_pairs ctx (app1 : Rule.smartapp) (app2 : Rule.smartapp) =
  memo ctx.caches.unify_pairs_c (app1.Rule.name, app2.Rule.name) (fun () ->
      let inputs2 = (app_facts ctx app2).app_inputs in
      List.concat_map
        (fun d1 ->
          List.filter_map
            (fun d2 ->
              if ctx.config.same_device d1 d2 then Some (d1.di_var, d2.di_var) else None)
            inputs2)
        (app_facts ctx app1).app_inputs)

(* Build the unification renaming: matched device variables of app2 are
   renamed to app1's qualified name so shared state is shared in the
   solver. *)
let unifier ctx (app1 : Rule.smartapp) (app2 : Rule.smartapp) =
  let pairs =
    List.map
      (fun (v1, v2) -> (qualify app2.Rule.name v2, qualify app1.Rule.name v1))
      (unify_pairs ctx app1 app2)
  in
  fun var ->
    let base, attr = split_attr var in
    match List.assoc_opt base pairs with
    | Some base' -> ( match attr with Some a -> base' ^ "." ^ a | None -> base')
    | None -> var

let rename_formula rename f =
  let sub = List.map (fun v -> (v, Term.Var (rename v))) (Formula.free_vars f) in
  Formula.subst sub f

(* An app's configuration-value bindings under the same qualification
   (and optional device unification) its formula variables get, so the
   binding names in a [solve_query] match the formula's atoms. *)
let qualified_bindings ctx ?(rename = fun v -> v) (app : Rule.smartapp) =
  List.map
    (fun (v, t) -> (rename (qualify app.Rule.name v), t))
    (ctx.config.app_constraints app)

(* Solve through the fleet-shared verdict cache when one is configured.
   The hook receives the exact formula/store a local solve would use and
   the compute thunk is [budgeted_solve] itself, so a cache miss is
   byte-identical to running without a cache. *)
let cached_solve ctx ~kind ~apps ~bindings store f =
  match ctx.config.shared_cache with
  | None -> budgeted_solve ctx store f
  | Some hook ->
    let a1, a2 = apps in
    let q_apps = if a1 <= a2 then (a1, a2) else (a2, a1) in
    hook
      {
        q_kind = kind;
        q_apps;
        q_formula = f;
        q_store = store;
        q_bindings = bindings;
        q_fingerprint = ctx.fingerprint;
      }
      (fun () -> budgeted_solve ctx store f)

(* Qualified situation (trigger constraint + data + predicate) of a rule,
   with app-level config-value constraints folded in. *)
let qualified_formula ctx ~situation (app : Rule.smartapp) (rule : Rule.t) rename =
  let base = if situation then Rule.situation rule else
      Formula.conj
        (List.map (fun (v, t) -> Formula.eq (Term.Var v) t) rule.Rule.condition.Rule.data
        @ [ rule.Rule.condition.Rule.predicate ])
  in
  let config_eqs =
    List.map
      (fun (v, t) -> Formula.eq (Term.Var v) t)
      (ctx.config.app_constraints app)
  in
  let f = Formula.conj (base :: config_eqs) in
  let qualified =
    rename_formula (fun v -> rename (qualify app.Rule.name v)) f
  in
  qualified

(* Store typing qualified variables by resolving each base back to its
   app's input declarations. *)
let store_for ctx apps formula =
  let cap_of_var base =
    match String.index_opt base ':' with
    | Some i when i + 1 < String.length base && base.[i + 1] = ':' ->
      let app_name = String.sub base 0 i in
      let var = String.sub base (i + 2) (String.length base - i - 2) in
      List.find_map
        (fun (app : Rule.smartapp) ->
          if app.Rule.name <> app_name then None
          else
            List.find_map
              (fun d -> if d.di_var = var then Option.map fst d.di_device else None)
              (app_facts ctx app).app_inputs)
        apps
    | _ -> None
  in
  Rule.store_for_vars ~cap_of_var (Formula.free_vars formula)

(* Memoized satisfiability of the two rules' combined formulas. The
   solved formula [conj [f1; f2]] is symmetric in the two rules, so the
   key is ordered canonically: a reverse-direction query hits the cache
   entry of the forward solve instead of solving again. The key also
   carries the budget fingerprint, so an [Unknown] obtained under one
   budget is never replayed as the answer for a different budget. *)
let solve_overlap ctx ~situation ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  let kind = if situation then "sit" else "cond" in
  let key =
    let id1 = app1.Rule.name ^ "/" ^ r1.Rule.rule_id
    and id2 = app2.Rule.name ^ "/" ^ r2.Rule.rule_id in
    let lo, hi = if id1 <= id2 then (id1, id2) else (id2, id1) in
    (kind ^ ":" ^ ctx.fingerprint ^ ":" ^ lo, hi)
  in
  let compute () =
    let rename = unifier ctx app1 app2 in
    let f1 = qualified_formula ctx ~situation app1 r1 (fun v -> v) in
    let f2 = qualified_formula ctx ~situation app2 r2 rename in
    let f = Formula.conj [ f1; f2 ] in
    let store = store_for ctx [ app1; app2 ] f in
    let bindings =
      qualified_bindings ctx app1 @ qualified_bindings ctx ~rename app2
    in
    cached_solve ctx ~kind
      ~apps:(app1.Rule.name, app2.Rule.name)
      ~bindings store f
  in
  if not ctx.config.reuse then compute ()
  else
    match Hashtbl.find_opt ctx.overlap_cache key with
    | Some r -> r
    | None ->
      let r = compute () in
      Hashtbl.replace ctx.overlap_cache key r;
      r

(** Overlapping situations: trigger+condition of both rules jointly
    satisfiable (used by AR, GC). *)
let situations_overlap ctx p1 p2 = solve_overlap ctx ~situation:true p1 p2

(** Overlapping conditions only (used by trigger/condition interference). *)
let conditions_overlap ctx p1 p2 = solve_overlap ctx ~situation:false p1 p2

(* -- Action-Interference (AR, GC) ----------------------------------------- *)

let same_action_target same_device a1 a2 =
  match (a1.Rule.target, a2.Rule.target) with
  | Rule.Act_device v1, Rule.Act_device v2 -> same_device v1 v2
  | Rule.Act_location_mode, Rule.Act_location_mode -> true
  | _ -> false

let const_param a = match a.Rule.params with (Term.Int _ | Term.Str _) as t :: _ -> Some t | _ -> None

(* Contradictory commands: declared opposites, or same command with
   different constant parameters. *)
let commands_contradict ctx (a1 : Rule.action) (a2 : Rule.action) =
  let opposite = commands_opposite ctx a1.Rule.command a2.Rule.command in
  let conflicting_params =
    a1.Rule.command = a2.Rule.command
    &&
    match (const_param a1, const_param a2) with
    | Some p1, Some p2 -> p1 <> p2
    | _ -> false
  in
  opposite || conflicting_params

(* Some pair of actions issues contradictory commands to the same
   actuator. *)
let actions_race ctx same_device (r1 : Rule.t) (r2 : Rule.t) =
  List.exists
    (fun a1 ->
      List.exists
        (fun a2 -> same_action_target same_device a1 a2 && commands_contradict ctx a1 a2)
        r2.Rule.actions)
    r1.Rule.actions

(** Actuator-Race candidate: some pair of actions issues contradictory
    commands to the same actuator. *)
let ar_candidate ctx ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  actions_race ctx (same_device ctx app1 app2) r1 r2

let triggers_unify ctx ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  match (r1.Rule.trigger, r2.Rule.trigger) with
  | Rule.Event e1, Rule.Event e2 -> (
    e1.attribute = e2.attribute
    &&
    match (e1.subject, e2.subject) with
    | Rule.Device v1, Rule.Device v2 -> same_device ctx app1 app2 v1 v2
    | Rule.Location, Rule.Location -> true
    | Rule.App_touch, Rule.App_touch -> true
    | _ -> false)
  | Rule.Scheduled s1, Rule.Scheduled s2 -> (
    (* two fixed times must coincide; anything involving a period or an
       unknown time may overlap *)
    match (s1.at_minutes, s2.at_minutes) with
    | Some a1, Some a2 -> a1 = a2
    | _ -> true)
  | _ -> false

(* AR uses the conditions-only overlap: the paper's formalism asks for
   identical triggers, but its evaluation reports races between rules
   whose independent triggers merely can co-occur (e.g. LetThereBeDark's
   door-close vs UndeadEarlyWarning's door-open, §VIII-B item 4), and
   Fig 9 has CT/SD/LT reusing "the solving result of AR" — which is
   exactly this conditions overlap. Mutually exclusive *conditions*
   still rule the race out. *)
let detect_ar ctx p1 p2 =
  if ar_candidate ctx p1 p2 then begin
    let app1, r1 = p1 and app2, r2 = p2 in
    let detail =
      Printf.sprintf "contradictory commands on the same actuator (%s vs %s)"
        (String.concat "," (List.map (fun a -> a.Rule.command) r1.Rule.actions))
        (String.concat "," (List.map (fun a -> a.Rule.command) r2.Rule.actions))
    in
    match conditions_overlap ctx p1 p2 with
    | Budget.Sat witness -> [ Threat.make Threat.AR (app1, r1) (app2, r2) ~witness detail ]
    | Budget.Unsat -> []
    | Budget.Unknown reason ->
      (* undecided overlap: the candidate is a *potential* race and must
         be reported, never silently treated as "no threat" *)
      [ Threat.make Threat.AR (app1, r1) (app2, r2) ~severity:(undecided_severity reason) detail ]
  end
  else []

(* Pairs of environment goals the two rules' actions push in opposite
   directions (solver-free; the GC candidate filter). *)
let conflicting_goal_pairs same_device f1 f2 =
  List.concat_map
    (fun a1 ->
      List.concat_map
        (fun a2 ->
          match Effects.conflicting_goals a1.af_effects a2.af_effects with
          | [] -> []
          | goals ->
            if same_action_target same_device a1.af_action a2.af_action then []
            else goals)
        f2.rf_actions)
    f1.rf_actions
  |> List.sort_uniq compare

let detect_gc ctx p1 p2 =
  let app1, r1 = p1 and app2, r2 = p2 in
  let goal_pairs =
    conflicting_goal_pairs (same_device ctx app1 app2) (rule_facts ctx p1) (rule_facts ctx p2)
  in
  if goal_pairs = [] then []
  else
    let detail =
      Printf.sprintf "actions with contradictory goals over %s"
        (String.concat ", " (List.map Env.to_string goal_pairs))
    in
    match situations_overlap ctx p1 p2 with
    | Budget.Sat witness -> [ Threat.make Threat.GC (app1, r1) (app2, r2) ~witness detail ]
    | Budget.Unsat -> []
    | Budget.Unknown reason ->
      [ Threat.make Threat.GC (app1, r1) (app2, r2) ~severity:(undecided_severity reason) detail ]

(* -- Trigger-Interference (CT, SD, LT) ------------------------------------ *)

(* Does action a1 (of app1/r1) satisfy r2's trigger?  Returns a
   human-readable channel description when it can. [~approx:true] skips
   the written-value compatibility solve (over-approximating: a value
   mismatch is treated as compatible) so the check is solver-free and
   usable as a planning pre-filter. *)
let action_triggers ?(approx = false) ctx same_device ((app1 : Rule.smartapp), a1) (app2, f2) =
  let r2 = f2.rf_rule in
  match r2.Rule.trigger with
  | Rule.Scheduled _ -> None
  | Rule.Event { subject; attribute; constraint_ } -> (
    (* way 1: direct attribute write *)
    let direct =
      List.find_map
        (fun (w : Channels.attr_write) ->
          let subject_matches =
            match (w.Channels.w_target, subject) with
            | Rule.Act_device v1, Rule.Device v2 ->
              w.Channels.w_attr = attribute && same_device v1 v2
            | Rule.Act_location_mode, Rule.Location -> attribute = "mode"
            | _ -> false
          in
          if not subject_matches then None
          else
            (* value compatibility: written value must satisfy the
               trigger constraint *)
            let subject_var =
              match subject with
              | Rule.Device v2 -> qualify app2.Rule.name (v2 ^ "." ^ attribute)
              | Rule.Location -> "location.mode"
              | Rule.App_touch -> "app.touch"
            in
            let trig =
              rename_formula (fun v -> qualify app2.Rule.name v) constraint_
            in
            let value_ok =
              match w.Channels.w_value with
              | Some ((Term.Int _ | Term.Str _) as value) when not approx -> (
                let f = Formula.conj [ trig; Formula.eq (Term.Var subject_var) value ] in
                match
                  cached_solve ctx ~kind:"ct"
                    ~apps:(app1.Rule.name, app2.Rule.name)
                    ~bindings:(qualified_bindings ctx app2)
                    (store_for ctx [ app1; app2 ] f)
                    f
                with
                | Budget.Sat _ -> true
                | Budget.Unsat -> false
                (* undecided compatibility is treated as compatible: the
                   over-approximation may flag a spurious edge but can
                   never hide a real one *)
                | Budget.Unknown _ -> true)
              | _ -> true
            in
            if value_ok then
              Some
                (Printf.sprintf "command %s sets %s, the trigger of %s"
                   a1.af_action.Rule.command attribute r2.Rule.rule_id)
            else None)
        a1.af_writes
    in
    match direct with
    | Some _ -> direct
    | None -> (
      (* way 2: through the environment *)
      match f2.rf_sensed with
      | None -> None
      | Some feature ->
        List.find_map
          (fun (f, pol) ->
            if f <> feature then None
            else
              let subject_var =
                match subject with
                | Rule.Device v2 -> v2 ^ "." ^ attribute
                | Rule.Location -> "location." ^ attribute
                | Rule.App_touch -> "app.touch"
              in
              let compatible =
                constraint_ = Formula.True
                || Channels.polarity_can_satisfy constraint_ subject_var pol
              in
              if compatible then
                Some
                  (Printf.sprintf "command %s changes %s sensed by %s's trigger"
                     a1.af_action.Rule.command (Env.to_string f) r2.Rule.rule_id)
              else None)
          a1.af_effects))

(* A triggering edge: [Some (witness, severity, detail)]. A decisive
   non-overlap kills the edge; an undecided overlap keeps it alive as a
   potential edge (no witness, [Undecided] severity). *)
let ct_edge ctx ((app1, r1) as p1 : tagged_rule) ((app2, r2) as p2 : tagged_rule) =
  if r1.Rule.rule_id = r2.Rule.rule_id && app1.Rule.name = app2.Rule.name then None
  else
    let same_device = same_device ctx app1 app2 and f2 = (app2, rule_facts ctx p2) in
    let channel =
      List.find_map
        (fun a1 -> action_triggers ctx same_device (app1, a1) f2)
        (rule_facts ctx p1).rf_actions
    in
    match channel with
    | None -> None
    | Some detail -> (
      match conditions_overlap ctx p1 p2 with
      | Budget.Sat witness -> Some (Some witness, Threat.Confirmed, detail)
      | Budget.Unsat -> None
      | Budget.Unknown reason -> Some (None, undecided_severity reason, detail))

(* The worse of two edge severities: a threat built from edges is only
   [Confirmed] when every contributing edge is. *)
let worst_severity s1 s2 = if Threat.is_undecided s1 then s1 else s2

let detect_trigger_interference ctx p1 p2 =
  let app1, r1 = p1 and app2, r2 = p2 in
  let e12 = ct_edge ctx p1 p2 in
  let e21 = ct_edge ctx p2 p1 in
  let ar_cand = ar_candidate ctx p1 p2 in
  let edge_threat cat pa pb (witness, severity, detail) =
    { (Threat.make cat pa pb ~severity detail) with Threat.witness }
  in
  let ct_threats =
    (match e12 with
    | Some e -> [ edge_threat Threat.CT (app1, r1) (app2, r2) e ]
    | None -> [])
    @
    match e21 with
    | Some e -> [ edge_threat Threat.CT (app2, r2) (app1, r1) e ]
    | None -> []
  in
  let sd_threats =
    match (e12, ar_cand) with
    | Some (w, sev, _), true ->
      [
        edge_threat Threat.SD (app1, r1) (app2, r2)
          ( w, sev,
            Printf.sprintf "%s triggers %s whose action undoes it" r1.Rule.rule_id
              r2.Rule.rule_id );
      ]
    | _ -> (
      match (e21, ar_cand) with
      | Some (w, sev, _), true ->
        [
          edge_threat Threat.SD (app2, r2) (app1, r1)
            ( w, sev,
              Printf.sprintf "%s triggers %s whose action undoes it" r2.Rule.rule_id
                r1.Rule.rule_id );
        ]
      | _ -> [])
  in
  let lt_threats =
    match (e12, e21, ar_cand) with
    | Some (w, sev12, _), Some (_, sev21, _), true ->
      [
        edge_threat Threat.LT (app1, r1) (app2, r2)
          (w, worst_severity sev12 sev21, "rules trigger each other with contradictory actions");
      ]
    | _ -> []
  in
  ct_threats @ sd_threats @ lt_threats

(* -- Condition-Interference (EC, DC) -------------------------------------- *)

(* Effect constraints of action a1 on r2's condition variables. The
   predicate is used with data constraints expanded so pure bindings
   (e.g. [t = sensor.temperature] feeding only the trigger) don't count
   as condition state. *)
let condition_effects same_device a1 f2 =
  (* way 1: direct writes to condition-tested attributes *)
  let direct =
    List.concat_map
      (fun (w : Channels.attr_write) ->
        List.filter_map
          (fun (var, base, attr) ->
            let matches =
              match (w.Channels.w_target, attr) with
              | Rule.Act_device v1, Some a when a = w.Channels.w_attr ->
                base <> "location" && same_device v1 base
              | Rule.Act_location_mode, Some "mode" -> base = "location"
              | _ -> false
            in
            if not matches then None
            else
              match w.Channels.w_value with
              | Some value -> Some (`Eq (var, value))
              | None -> Some (`Touches var))
          f2.rf_cond_vars)
      a1.af_writes
  in
  (* way 2: environment effects on sensed condition variables *)
  let { Rule.command; params; _ } = a1.af_action in
  let env_effects =
    List.concat_map
      (fun (feature, pol) ->
        List.filter_map
          (fun (var, _, attr) ->
            if not (Channels.attr_senses feature attr) then None
            else
              match (params, pol) with
              | ((Term.Int _ | Term.Var _) as p) :: _, Effects.Incr
                when command = "setHeatingSetpoint" ->
                Some (`Ge (var, p))
              | ((Term.Int _ | Term.Var _) as p) :: _, Effects.Decr
                when command = "setCoolingSetpoint" ->
                Some (`Le (var, p))
              | _ -> Some (`Dir (var, pol)))
          f2.rf_cond_vars)
      a1.af_effects
  in
  direct @ env_effects

(* One budgeted enable/disable solve: Sat means the write can enable the
   condition (EC, with witness); a decisive Unsat means it provably
   falsifies it (DC). Unknown is reported as a *potential* EC — a tripped
   budget must never masquerade as a proven DC. *)
let solved_effect ctx apps ~bindings f ~verb ~rule_id =
  let app_names =
    match apps with
    | (a1 : Rule.smartapp) :: a2 :: _ -> (a1.Rule.name, a2.Rule.name)
    | [ a1 ] -> (a1.Rule.name, a1.Rule.name)
    | [] -> ("", "")
  in
  match cached_solve ctx ~kind:"fx" ~apps:app_names ~bindings (store_for ctx apps f) f with
  | Budget.Sat w ->
    ( Threat.EC, Some w, Threat.Confirmed,
      Printf.sprintf "%s enabling %s's condition" verb rule_id )
  | Budget.Unsat ->
    ( Threat.DC, None, Threat.Confirmed,
      Printf.sprintf "%s disabling %s's condition" verb rule_id )
  | Budget.Unknown reason ->
    ( Threat.EC, None, undecided_severity reason,
      Printf.sprintf "%s possibly enabling %s's condition" verb rule_id )

let detect_condition_interference_dir ctx ((app1, r1) as p1 : tagged_rule)
    ((app2, r2) as p2 : tagged_rule) =
  if r1.Rule.rule_id = r2.Rule.rule_id && app1.Rule.name = app2.Rule.name then []
  else
    let same_device = same_device ctx app1 app2 and f2 = rule_facts ctx p2 in
    let all_effects =
      List.concat_map
        (fun a1 ->
          List.map (fun e -> (a1.af_action, e)) (condition_effects same_device a1 f2))
        (rule_facts ctx p1).rf_actions
    in
    if all_effects = [] then []
    else
      (* Rename app1's matched device variables to app2's qualified
         names (as [solve_overlap] does) so an action parameter that
         reads a shared device is the *same* solver variable as the one
         the condition tests. *)
      let rename = unifier ctx app2 app1 in
      let import_term t =
        Term.subst
          (List.map
             (fun v -> (v, Term.Var (rename (qualify app1.Rule.name v))))
             (Term.free_vars t))
          t
      in
      let bindings =
        qualified_bindings ctx app2 @ qualified_bindings ctx ~rename app1
      in
      (* merge effect constraints with R2's condition and solve; solvable
         means the condition may be enabled, otherwise disabled *)
      let cond_q = qualified_formula ctx ~situation:false app2 r2 rename in
      let q v = qualify app2.Rule.name v in
      let results =
        List.filter_map
          (fun (a1, effect) ->
            match effect with
            | `Eq (var, value) ->
              let f =
                Formula.conj [ cond_q; Formula.eq (Term.Var (q var)) (import_term value) ]
              in
              Some
                (solved_effect ctx [ app1; app2 ] ~bindings f
                   ~verb:(Printf.sprintf "%s sets %s" a1.Rule.command var)
                   ~rule_id:r2.Rule.rule_id)
            | `Ge (var, bound) ->
              let f =
                Formula.conj [ cond_q; Formula.ge (Term.Var (q var)) (import_term bound) ]
              in
              Some
                (solved_effect ctx [ app1; app2 ] ~bindings f
                   ~verb:(Printf.sprintf "%s raises %s" a1.Rule.command var)
                   ~rule_id:r2.Rule.rule_id)
            | `Le (var, bound) ->
              let f =
                Formula.conj [ cond_q; Formula.le (Term.Var (q var)) (import_term bound) ]
              in
              Some
                (solved_effect ctx [ app1; app2 ] ~bindings f
                   ~verb:(Printf.sprintf "%s lowers %s" a1.Rule.command var)
                   ~rule_id:r2.Rule.rule_id)
            | `Dir (var, pol) ->
              let can = Channels.polarity_can_satisfy f2.rf_cond var pol in
              let opposite =
                Channels.polarity_can_satisfy f2.rf_cond var
                  (match pol with Effects.Incr -> Effects.Decr | Effects.Decr -> Effects.Incr)
              in
              if can then
                Some
                  (Threat.EC, None, Threat.Confirmed,
                   Printf.sprintf "%s pushes %s toward satisfying %s's condition"
                     a1.Rule.command var r2.Rule.rule_id)
              else if opposite then
                Some
                  (Threat.DC, None, Threat.Confirmed,
                   Printf.sprintf "%s pushes %s away from %s's condition" a1.Rule.command
                     var r2.Rule.rule_id)
              else None
            | `Touches var ->
              Some
                (Threat.EC, None, Threat.Confirmed,
                 Printf.sprintf "%s writes %s used in %s's condition" a1.Rule.command var
                   r2.Rule.rule_id))
          all_effects
      in
      (* report at most one EC and one DC per direction; prefer a
         decisive entry over an undecided one for the same category *)
      let pick cat =
        let of_cat = List.filter (fun (c, _, _, _) -> c = cat) results in
        match List.find_opt (fun (_, _, sev, _) -> not (Threat.is_undecided sev)) of_cat with
        | Some e -> Some e
        | None -> ( match of_cat with e :: _ -> Some e | [] -> None)
      in
      List.filter_map
        (fun entry ->
          match entry with
          | Some (cat, witness, severity, detail) ->
            Some
              { (Threat.make cat (app1, r1) (app2, r2) ~severity detail) with Threat.witness }
          | None -> None)
        [ pick Threat.EC; pick Threat.DC ]

let detect_condition_interference ctx p1 p2 =
  detect_condition_interference_dir ctx p1 p2 @ detect_condition_interference_dir ctx p2 p1

(* -- top level ------------------------------------------------------------- *)

(** All CAI threats between two rules. *)
let detect_pair ctx (p1 : tagged_rule) (p2 : tagged_rule) =
  let app1, r1 = p1 and app2, r2 = p2 in
  if app1.Rule.name = app2.Rule.name && r1.Rule.rule_id = r2.Rule.rule_id then []
  else
    detect_ar ctx p1 p2 @ detect_gc ctx p1 p2
    @ detect_trigger_interference ctx p1 p2
    @ detect_condition_interference ctx p1 p2

(* -- planning and batched parallel execution ------------------------------- *)

(* The solver-free pre-filters over one rule pair's facts, given the
   app pair's device matchers in both directions: could any category's
   analysis produce a threat? *)
let facts_candidate ctx (sd12, sd21) ((_, f1) as p1) ((_, f2) as p2) =
  let may_trigger same_device (appa, fa) pb =
    List.exists
      (fun a -> action_triggers ~approx:true ctx same_device (appa, a) pb <> None)
      fa.rf_actions
  in
  let has_condition_effects same_device fa fb =
    List.exists (fun a -> condition_effects same_device a fb <> []) fa.rf_actions
  in
  actions_race ctx sd12 f1.rf_rule f2.rf_rule
  || conflicting_goal_pairs sd12 f1 f2 <> []
  || may_trigger sd12 p1 p2 || may_trigger sd21 p2 p1
  || has_condition_effects sd12 f1 f2 || has_condition_effects sd21 f2 f1

(** Cheap, solver-free over-approximation of [detect_pair <> []]: the
    per-category candidate pre-filters (action targets, goal effects,
    attribute/environment channel maps) without any constraint solving.
    A pair that fails every pre-filter cannot produce a threat, so the
    planner drops it before scheduling. *)
let pair_candidate ctx ((app1, r1) as p1 : tagged_rule) ((app2, r2) as p2 : tagged_rule) =
  (not (app1.Rule.name = app2.Rule.name && r1.Rule.rule_id = r2.Rule.rule_id))
  && facts_candidate ctx
       (same_device ctx app1 app2, same_device ctx app2 app1)
       (app1, rule_facts ctx p1) (app2, rule_facts ctx p2)

(* An app with the facts of each of its rules, in rule order. *)
let with_rule_facts ctx (app : Rule.smartapp) =
  (app, List.map (fun r -> rule_facts ctx (app, r)) app.Rule.rules)

(* [pair_candidate] for every rule pair of two differently named apps:
   [m.(i).(j)] for rule [i] of the first and rule [j] of the second. The
   facts and the two device matchers are looked up once for the app
   pair. *)
let candidate_matrix ctx ((a, fa) : Rule.smartapp * rule_facts list) (b, fb) =
  let matchers = (same_device ctx a b, same_device ctx b a) in
  Array.of_list
    (List.map
       (fun f1 ->
         Array.of_list (List.map (fun f2 -> facts_candidate ctx matchers (a, f1) (b, f2)) fb))
       fa)

(** The audit plan: every cross-app rule pair that survives the cheap
    pre-filters, in the deterministic sequential enumeration order. *)
let candidate_pairs ctx (apps : Rule.smartapp list) =
  let apps = Array.of_list (List.map (with_rule_facts ctx) apps) in
  let n = Array.length apps in
  let plan = ref [] in
  for p = 0 to n - 1 do
    let a, fa = apps.(p) in
    (* the sequential order: each rule of app [p] against every rule of
       every later, differently named app *)
    let later =
      List.filter_map
        (fun q ->
          let b, fb = apps.(q) in
          if b.Rule.name = a.Rule.name then None
          else Some (b, fb, candidate_matrix ctx apps.(p) apps.(q)))
        (List.init (n - p - 1) (fun k -> p + 1 + k))
    in
    List.iteri
      (fun i f1 ->
        List.iter
          (fun (b, fb, m) ->
            List.iteri
              (fun j f2 ->
                if m.(i).(j) then plan := ((a, f1.rf_rule), (b, f2.rf_rule)) :: !plan)
              fb)
          later)
      fa
  done;
  Array.of_list (List.rev !plan)

(* -- crash-isolated execution ---------------------------------------------- *)

type failure = {
  pair : string;
  apps : string * string;  (** the two app names, for failure attribution *)
  exn : string;
  backtrace : string;
}

type audit_result = {
  threats : Threat.t list;
  undecided : int;  (** threats carrying an [Undecided] severity *)
  failures : failure list;  (** pairs whose detection crashed twice *)
  retried : int;  (** pairs retried on the coordinator after a crash *)
  shed : int;
      (** pairs never audited because the run was cancelled (deadline or
          load shed). A result with [shed > 0] is incomplete and must be
          treated conservatively — it can support "threats found" but
          never "no threat" *)
}

let pair_label ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  Printf.sprintf "%s/%s ~ %s/%s" app1.Rule.name r1.Rule.rule_id app2.Rule.name
    r2.Rule.rule_id

let merge_ctx into c =
  into.solver_calls <- into.solver_calls + c.solver_calls;
  into.escalations <- into.escalations + c.escalations;
  into.undecided_solves <- into.undecided_solves + c.undecided_solves;
  Hashtbl.iter
    (fun k v ->
      if not (Hashtbl.mem into.overlap_cache k) then Hashtbl.add into.overlap_cache k v)
    c.overlap_cache

(* Run a planned pair array with per-item crash isolation. Each pair is
   detected under [Schedule.capture], so one raising pair cannot tear
   down its batch or the audit. [jobs <= 1] detects sequentially in the
   caller's ctx. Otherwise batches fan out across domains, each with its
   own ctx — the overlap cache and counters are mutable and not
   thread-safe — and the per-domain ctxs are merged back *before* the
   coordinator retries failed pairs, so a retry sees the same cache
   state the sequential mode would. Failed pairs are retried exactly
   once on the coordinator domain; pairs that fail both attempts land in
   [failures], in pair order. Per-pair detection does not depend on
   cache contents, so threats, undecided set and failures are identical
   (and identically ordered) for every [jobs]. *)
let run_pairs ~jobs ?(cancel = fun () -> false) ctx
    (pairs : (tagged_rule * tagged_rule) array) =
  (* [None] = never attempted: the run was cancelled before this pair. *)
  let detect_one c (p1, p2) =
    if cancel () then None else Some (Schedule.capture (fun () -> detect_pair c p1 p2))
  in
  let first_pass =
    if jobs <= 1 then Array.map (detect_one ctx) pairs
    else begin
      let results =
        Schedule.map_batches ~cancel ~jobs
          (fun batch ->
            let c = create ctx.config in
            (Array.map (detect_one c) batch, c))
          pairs
      in
      Array.iter (function Some (_, c) -> merge_ctx ctx c | None -> ()) results;
      (* flatten batch slots back to per-pair slots, [None] for whole
         batches the cancellation skipped *)
      let batch_sizes = Array.map Array.length (Schedule.batches ~jobs pairs) in
      Array.concat
        (List.concat
           (List.mapi
              (fun i slot ->
                match slot with
                | Some (rs, _) -> [ rs ]
                | None -> [ Array.make batch_sizes.(i) None ])
              (Array.to_list results)))
    end
  in
  let retried = ref 0 and failures = ref [] and threats = ref [] and shed = ref 0 in
  Array.iteri
    (fun i result ->
      let p1, p2 = pairs.(i) in
      match result with
      | None -> incr shed
      | Some (Ok ts) -> threats := ts :: !threats
      | Some (Error (_ : Schedule.exn_info)) -> (
        incr retried;
        match detect_one ctx (p1, p2) with
        | None -> incr shed
        | Some (Ok ts) -> threats := ts :: !threats
        | Some (Error info) ->
          failures :=
            {
              pair = pair_label p1 p2;
              apps = ((fst p1).Rule.name, (fst p2).Rule.name);
              exn = info.Schedule.exn;
              backtrace = info.Schedule.backtrace;
            }
            :: !failures))
    first_pass;
  let threats = List.concat (List.rev !threats) in
  {
    threats;
    undecided =
      List.length (List.filter (fun t -> Threat.is_undecided t.Threat.severity) threats);
    failures = List.rev !failures;
    retried = !retried;
    shed = !shed;
  }

(** Crash-isolated audit of an explicit pair plan. *)
let audit_pairs ?(jobs = 1) ?cancel ctx pairs = run_pairs ~jobs ?cancel ctx pairs

let new_app_pairs ctx (db : Homeguard_rules.Rule_db.t) (new_app : Rule.smartapp) =
  let installed = Homeguard_rules.Rule_db.all_rules db in
  List.concat_map
    (fun new_rule ->
      List.filter_map
        (fun ((old_app, old_rule) : tagged_rule) ->
          if old_app.Rule.name = new_app.Rule.name then None
          else Some ((new_app, new_rule), (old_app, old_rule)))
        installed)
    new_app.Rule.rules
  |> List.filter (fun (p1, p2) -> pair_candidate ctx p1 p2)
  |> Array.of_list

(** Install-time audit of a newly installed app against every
    already-installed app recorded in [db] (the online flow, §IV-C). *)
let audit_new_app ?(jobs = 1) ?cancel ctx db new_app =
  run_pairs ~jobs ?cancel ctx (new_app_pairs ctx db new_app)

(* -- pair-cached audit ------------------------------------------------------ *)

(* One app pair's full rule-pair matrix, with the same per-pair crash
   isolation and single coordinator retry [run_pairs] gives the flat
   plan, and the failed rule pairs of each row of the first app, most
   recent first. Failed pairs contribute no threats, exactly like the
   flat path. *)
let group_matrix ctx ~retried (a : Rule.smartapp) (b : Rule.smartapp) :
    pair_matrix * failure list array =
  let rows = Array.of_list a.Rule.rules in
  let failed = Array.make (Array.length rows) [] in
  let detect i p1 p2 =
    match Schedule.capture (fun () -> detect_pair ctx p1 p2) with
    | Ok ts -> ts
    | Error (_ : Schedule.exn_info) -> (
      incr retried;
      match Schedule.capture (fun () -> detect_pair ctx p1 p2) with
      | Ok ts -> ts
      | Error info ->
        failed.(i) <-
          {
            pair = pair_label p1 p2;
            apps = (a.Rule.name, b.Rule.name);
            exn = info.Schedule.exn;
            backtrace = info.Schedule.backtrace;
          }
          :: failed.(i);
        [])
  in
  let candidates = candidate_matrix ctx (with_rule_facts ctx a) (with_rule_facts ctx b) in
  let m =
    Array.mapi
      (fun i ra ->
        Array.mapi
          (fun j rb -> if candidates.(i).(j) then detect i (a, ra) (b, rb) else [])
          (Array.of_list b.Rule.rules))
      rows
  in
  (m, failed)

let matrix_has_undecided (m : pair_matrix) =
  Array.exists
    (Array.exists (List.exists (fun t -> Threat.is_undecided t.Threat.severity)))
    m

(* Pair-cached exhaustive audit. Matrices are fetched or computed per
   app pair (in install order — detection is orientation-sensitive),
   then reassembled in the flat plan's enumeration order: for each
   tagged rule, all later apps' rules in order; a group's failures are
   emitted at their rule row in that same pass. Threats, failures and
   the undecided count are byte-identical to the flat path; only the
   order in which pairs are *computed* differs, which no detection
   depends on. Groups that crashed or contain an undecided threat are
   never stored — an undecided result is a budget artifact, not a
   verdict, and must be recomputed (and possibly escalated) next time.
   Once [cancel] fires, every remaining group is shed whole: the shed
   count is the groups' full rule-pair cross product, an
   over-approximation of the flat plan's candidate count (counting
   exactly would require planning the groups we are shedding to avoid
   planning), with the same sign: [shed > 0] iff incomplete. *)
let audit_all_grouped ?(cancel = fun () -> false) pc ctx (apps : Rule.smartapp list) =
  let apps_a = Array.of_list apps in
  let n = Array.length apps_a in
  let retried = ref 0 in
  let cancelled = ref false and shed = ref 0 in
  let matrices = Hashtbl.create 16 in
  (* each app's bindings are read once per audit, so every key of the
     audit shares them physically *)
  let bindings = Array.map ctx.config.app_constraints apps_a in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      let a = apps_a.(p) and b = apps_a.(q) in
      if a.Rule.name <> b.Rule.name then
        if !cancelled || cancel () then begin
          cancelled := true;
          shed := !shed + (List.length a.Rule.rules * List.length b.Rule.rules)
        end
        else begin
        let pa =
          {
            pa_apps = (a, b);
            pa_bindings = (bindings.(p), bindings.(q));
            pa_unify = unify_pairs ctx a b;
            pa_fingerprint = ctx.pair_fp;
          }
        in
        let group =
          match pc.pair_lookup pa with
          | Some m -> (m, Array.make (Array.length m) [])
          | None ->
            let ((m, failed) as group) = group_matrix ctx ~retried a b in
            if Array.for_all (( = ) []) failed && not (matrix_has_undecided m) then
              pc.pair_store pa m;
            group
        in
        Hashtbl.replace matrices (p, q) group
      end
    done
  done;
  let threats = ref [] and failures = ref [] in
  for p = 0 to n - 1 do
    List.iteri
      (fun i _ ->
        for q = p + 1 to n - 1 do
          match Hashtbl.find_opt matrices (p, q) with
          | Some (m, failed) ->
            Array.iter (fun ts -> threats := ts :: !threats) m.(i);
            failures := failed.(i) @ !failures
          | None -> ()
        done)
      apps_a.(p).Rule.rules
  done;
  let threats = List.concat (List.rev !threats) in
  {
    threats;
    undecided =
      List.length (List.filter (fun t -> Threat.is_undecided t.Threat.severity) threats);
    failures = List.rev !failures;
    retried = !retried;
    shed = !shed;
  }

(** Exhaustive pairwise audit over a set of apps (the corpus audit,
    §VIII-B). With a [pair_cache] configured the plan is grouped by app
    pair and cached results replace planning and detection wholesale
    ([jobs] is ignored — groups run on the coordinator; output is
    byte-identical to the flat plan at every job count). *)
let audit_all ?(jobs = 1) ?cancel ctx (apps : Rule.smartapp list) =
  match ctx.config.pair_cache with
  | Some pc -> audit_all_grouped ?cancel pc ctx apps
  | None -> run_pairs ~jobs ?cancel ctx (candidate_pairs ctx apps)

(** Threat-list views of the audits, for callers that only consume the
    reports (the structured counts stay available via [audit_*]). *)
let detect_new_app ?jobs ctx db new_app = (audit_new_app ?jobs ctx db new_app).threats

let detect_all ?jobs ctx apps = (audit_all ?jobs ctx apps).threats
