(** The CAI threat detection engine (paper §VI).

    Pairwise analysis of rules: candidate filtering against the action/
    channel maps, then overlapping-condition detection as constraint
    satisfaction. The planner's pre-filter answers travel with each
    planned pair, so no category asks them again. Solver results are
    memoized per rule pair so CT/SD/LT reuse the AR solve and DC reuses
    the EC solve (Fig 9's green lines), and per ctx so a query asked
    again is answered once; pass [~reuse:false] to measure the
    unmemoized cost (ablation A1). *)

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
      (** pair-level result cache: in [audit_all] a lookup hit
          replaces planning and detection for the whole app pair. A hit
          must be byte-identical to what detecting the pair would
          produce. [None] (default) plans every pair. *)
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

(* The cache-key fingerprint of any fleet-wide verdict cache behind
   [shared_cache]: budget tier, solver A/B flags, and whether
   escalation retries are on. Anything that can change what a solve returns must be in here. *)
let solve_fingerprint config =
  Budget.cache_fingerprint config.budget
  ^ ";" ^ Solver.flags_fingerprint ()
  ^ (if config.escalate then ";e1" else ";e0")

(* Pair-tier fingerprint: the solve fingerprint plus the memoization
   switch. [reuse] cannot change a verdict, but it can change which
   solver results back a witness, and pair-cache hits must be
   byte-identical to detecting the pair — so it keys. *)
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

(* A rule's channel keys, each a union of {!Channels} bits: what each
   pre-filter check can match on (DESIGN.md §7.2). *)
type keys = {
  k_cmd : int;  (** its commands *)
  k_contra : int;  (** its commands and their declared opposites *)
  k_goal : int;  (** its effect features but power and energy *)
  k_writes : int;  (** the attributes it writes, the mode, its effect features *)
  k_trig : int;  (** its trigger's attribute and sensed feature *)
  k_cond : int;  (** its condition vars' attributes and sensed features *)
}

type rule_facts = {
  rf_rule : Rule.t;
  rf_actions : action_facts list;
  rf_sensed : Env.t option;
  rf_cond : Formula.t;
  rf_cond_vars : (string * string * string option) list;
  rf_keys : keys;
}

type app_facts = {
  app_inputs : device_input list;
  app_rules : rule_facts list;
}

(* A decisive verdict with the solver calls and escalations it cost. *)
type answer = { verdict : Solver.verdict; calls : int; escalated : int }

(* The verdict memo: an exact solver input, the store then the formula,
   to its decisive answer. Stores and formulas are plain trees, so
   structural equality is exact; the hash reads far enough into both
   that queries differing only in a deep constant rarely share a
   bucket. *)
module Memo = Hashtbl.Make (struct
  type t = Store.t * Formula.t

  let equal (s1, f1) (s2, f2) = f1 = f2 && s1 = s2
  let hash k = Hashtbl.hash_param 64 512 k
end)

type memo = answer Memo.t

type ctx = {
  config : config;
  fingerprint : string;  (** {!solve_fingerprint} of [config], memoized *)
  pair_fp : string;  (** {!pair_fingerprint} of [config], memoized *)
  memo : memo;  (** decisive verdicts by exact solver input, with [config.reuse] *)
  mutable solver_calls : int;  (** solves asked, each memo answer counted as its first solve *)
  mutable escalations : int;  (** undecided solves retried with a bigger budget *)
  mutable undecided_solves : int;  (** solves still undecided after escalation *)
  mutable memo_answers : int;  (** solves the memo answered *)
}

let create config =
  {
    config;
    fingerprint = solve_fingerprint config;
    pair_fp = pair_fingerprint config;
    memo = Memo.create 16;
    solver_calls = 0;
    escalations = 0;
    undecided_solves = 0;
    memo_answers = 0;
  }

(* Split a variable "v.attr" into its base and attribute. *)
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

(* Every declared (command, opposite) pair of the immutable capability
   registry, built once per process and read from any domain. *)
let opposite_commands =
  List.concat_map
    (fun (cap : Capability.t) ->
      List.filter_map
        (fun (c : Capability.command) ->
          Option.map (fun o -> (c.Capability.cmd_name, o)) c.Capability.opposite)
        cap.Capability.commands)
    Capability.registry
  |> List.sort_uniq compare

let commands_opposite c1 c2 =
  List.exists (fun (a, b) -> String.equal a c1 && String.equal b c2) opposite_commands

(* Each command's declared opposites as one key, built once per process
   and only read afterwards. *)
let opposite_keys =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (c, o) ->
      let k = Option.value (Hashtbl.find_opt t c) ~default:0 in
      Hashtbl.replace t c (k lor Channels.name_bit o))
    opposite_commands;
  t

let union bit l = List.fold_left (fun k x -> k lor bit x) 0 l

let sensed_bit = function Some f -> Channels.feature_bit f | None -> 0

(* A write's key: a device attribute by name, the location mode by its
   own bit, whatever attribute it names. *)
let write_bit (w : Channels.attr_write) =
  match w.Channels.w_target with
  | Rule.Act_location_mode -> Channels.mode_bit
  | Rule.Act_device _ -> Channels.name_bit w.Channels.w_attr
  | _ -> 0

(* A condition var's key: its attribute (the mode only on [location]),
   and the feature that attribute senses on any base. *)
let cond_var_bit (_, base, attr) =
  match attr with
  | None -> 0
  | Some a ->
    (if base <> "location" then Channels.name_bit a
     else if a = "mode" then Channels.mode_bit
     else 0)
    lor sensed_bit (Env.of_sensor_attribute a)

let rule_keys (r : Rule.t) actions sensed cond_vars =
  let command (a : Rule.action) = Channels.name_bit a.Rule.command in
  let opposites (a : Rule.action) =
    Option.value (Hashtbl.find_opt opposite_keys a.Rule.command) ~default:0
  in
  let effects ~goals =
    union
      (fun af ->
        union
          (fun (f, _) ->
            match f with Env.Power | Env.Energy when goals -> 0 | f -> Channels.feature_bit f)
          af.af_effects)
      actions
  in
  let cmd = union command r.Rule.actions in
  {
    k_cmd = cmd;
    k_contra = cmd lor union opposites r.Rule.actions;
    k_goal = effects ~goals:true;
    k_writes = union (fun af -> union write_bit af.af_writes) actions lor effects ~goals:false;
    k_trig =
      (match r.Rule.trigger with
      | Rule.Event { subject = Rule.Device _; attribute; _ } -> Channels.name_bit attribute
      | Rule.Event { subject = Rule.Location; attribute = "mode"; _ } -> Channels.mode_bit
      | _ -> 0)
      lor sensed_bit sensed;
    k_cond = union cond_var_bit cond_vars;
  }

let no_keys = { k_cmd = 0; k_contra = 0; k_goal = 0; k_writes = 0; k_trig = 0; k_cond = 0 }

let join k1 k2 =
  {
    k_cmd = k1.k_cmd lor k2.k_cmd;
    k_contra = k1.k_contra lor k2.k_contra;
    k_goal = k1.k_goal lor k2.k_goal;
    k_writes = k1.k_writes lor k2.k_writes;
    k_trig = k1.k_trig lor k2.k_trig;
    k_cond = k1.k_cond lor k2.k_cond;
  }

let rule_facts_of (app : Rule.smartapp) inputs (r : Rule.t) =
  let cond = Rule.expanded_predicate r in
  let actions = List.map (action_facts app inputs) r.Rule.actions in
  let sensed = Channels.sensed_feature_of_trigger r.Rule.trigger in
  let cond_vars =
    List.map
      (fun v ->
        let base, attr = split_attr v in
        (v, base, attr))
      (Formula.free_vars cond)
  in
  {
    rf_rule = r;
    rf_actions = actions;
    rf_sensed = sensed;
    rf_cond = cond;
    rf_cond_vars = cond_vars;
    rf_keys = rule_keys r actions sensed cond_vars;
  }

let app_facts (app : Rule.smartapp) =
  let inputs =
    List.filter_map
      (fun (i : Rule.input_decl) ->
        let d = device_input app i.Rule.var in
        if d.di_device = None then None else Some d)
      app.Rule.inputs
  in
  { app_inputs = inputs; app_rules = List.map (rule_facts_of app inputs) app.Rule.rules }

(* The descriptor of [var] among an app's facts: a declared capability
   input's precomputed one, or a bare one for any other var. *)
let rec find_input (app : Rule.smartapp) var = function
  | d :: rest -> if String.equal d.di_var var then d else find_input app var rest
  | [] -> { di_app = app; di_var = var; di_device = None }

let input_of app facts var = find_input app var facts.app_inputs

let is_shared_var var =
  var = "location.mode" || var = "app.touch"
  || (String.length var > 5 && String.starts_with ~prefix:"time." var)
  || (String.length var > 4 && String.starts_with ~prefix:"env." var)

(* A solver variable's name: an app's own variable [v] is ["App::v"],
   while the home's shared state (mode, touch, time, environment) keeps
   its bare name, so every app's rules read the same variable. *)
let qualify app_name var = if is_shared_var var then var else app_name ^ "::" ^ var

(* The inverse of [qualify]: the part after the last ["::"], since
   variables never contain [':'] and app names may. *)
let unqualify qvar =
  match String.rindex_opt qvar ':' with
  | Some i when i > 0 && qvar.[i - 1] = ':' -> String.sub qvar (i + 1) (String.length qvar - i - 1)
  | _ -> qvar

(* -- sides and cells --------------------------------------------------------- *)

(* A formula over one side's app, qualified once: its store types each
   variable by the app's own inputs, and [vars] holds each variable's
   name, qualified name and type, for the rename a second rule gets. *)
type qualified = {
  formula : Formula.t;
  store : Store.t;
  vars : (string * string * Domain.t option) list;
}

(* A rule's solver inputs: its condition and its situation, each with
   its side's configuration equalities folded in, and its bare trigger
   constraint, which the CT value check solves. *)
type part = Cond | Sit | Trig

(* One app of an audit as every detector reads it, derived once per
   audit: its facts, its rule facts by position, its configuration
   bindings, raw (folded into its formulas) and qualified (passed to the
   verdict cache), the union of its rules' keys, and each rule's solver
   inputs, each built by the first solve that needs it. *)
type side = {
  app : Rule.smartapp;
  facts : app_facts;
  rules : rule_facts array;  (** [facts.app_rules] *)
  keys : keys;  (** each key the union of the rules' *)
  cons : (string * Term.t) list;  (** [config.app_constraints app] *)
  qbind : (string * Term.t) list;  (** [cons] with qualified names *)
  inputs : qualified option Atomic.t array;
      (** three per rule, one per [part]; two domains fill a slot alike *)
}

let side_with (app : Rule.smartapp) cons =
  let facts = app_facts app in
  let rules = Array.of_list facts.app_rules in
  {
    app;
    facts;
    rules;
    keys = Array.fold_left (fun k rf -> join k rf.rf_keys) no_keys rules;
    cons;
    qbind = List.map (fun (v, t) -> (qualify app.Rule.name v, t)) cons;
    inputs = Array.init (3 * Array.length rules) (fun _ -> Atomic.make None);
  }

let side ctx app = side_with app (ctx.config.app_constraints app)

(* A rule's facts, found by identity among its side's rules; a rule from
   outside the app's rule list gets fresh facts. *)
let rule_facts s (r : Rule.t) =
  match Array.find_opt (fun rf -> rf.rf_rule == r) s.rules with
  | Some rf -> rf
  | None -> rule_facts_of s.app s.facts.app_inputs r

(* The device matcher between two sides: [matcher ctx s1 s2 v1 v2] asks
   [config.same_device] of both vars' descriptors. *)
let matcher ctx s1 s2 v1 v2 =
  ctx.config.same_device (input_of s1.app s1.facts v1) (input_of s2.app s2.facts v2)

(* The same-device relation over two sides' device inputs, in
   input-declaration order. *)
let unify_pairs ctx s1 s2 =
  List.concat_map
    (fun d1 ->
      List.filter_map
        (fun d2 -> if ctx.config.same_device d1 d2 then Some (d1.di_var, d2.di_var) else None)
        s2.facts.app_inputs)
    s1.facts.app_inputs

(* The type of variable [x] of side [s]'s app: a device attribute is
   typed by its own app's input declaration. *)
let var_type s x =
  Rule.var_domain x ~cap_of_var:(fun base ->
      if is_shared_var x then None else Option.map fst (input_of s.app s.facts base).di_device)

let add_type qx d store = match d with Some d -> Store.add qx d store | None -> store

(* An app pair seen from its first app: the device matcher, the
   unifier taking a variable of the second app to the first app's
   matched device variable (so shared state is shared in the solver),
   and the bindings of this orientation's solves — the first app's
   qualified bindings, then the second's imported. *)
type view = {
  s1 : side;
  s2 : side;
  same : string -> string -> bool;
  rename : string -> string option;
  bindings : (string * Term.t) list;
}

(* A variable of the view's second app as the view's solves name and
   type it: renamed to the first app's matched device variable and typed
   there, else qualified and typed with its own app. *)
let imported v x =
  match v.rename x with
  | Some x1 -> (qualify v.s1.app.Rule.name x1, var_type v.s1 x1)
  | None -> (qualify v.s2.app.Rule.name x, var_type v.s2 x)

(* The per-cell context: one app pair in both orientations, built once
   per cell. *)
type cell_ctx = { fwd : view; bwd : view }

let view ctx ?unify s1 s2 same =
  let pairs = match unify with Some u -> u | None -> unify_pairs ctx s1 s2 in
  let rename var =
    if is_shared_var var then None
    else
      let base, attr = split_attr var in
      List.find_map
        (fun (v1, v2) ->
          if v2 <> base then None
          else Some (match attr with Some a -> v1 ^ "." ^ a | None -> v1))
        pairs
  in
  let import (x, _) (qx, t) =
    ((match rename x with Some x1 -> qualify s1.app.Rule.name x1 | None -> qx), t)
  in
  { s1; s2; same; rename; bindings = s1.qbind @ List.map2 import s2.cons s2.qbind }

let cell_ctx ctx ?unify (s1, s2) (same12, same21) =
  { fwd = view ctx ?unify s1 s2 same12; bwd = view ctx s2 s1 same21 }

(* The solver-free tests each category's analysis begins with, answered
   once per rule pair when it is planned: [fwd] is the first rule's
   actions against the second rule, [bwd] the reverse. *)
type gate = {
  race : bool;  (** {!actions_race}: AR's test and SD/LT's race *)
  goals : Env.t list;  (** {!conflicting_goal_pairs}: GC's test *)
  trig_fwd : bool;  (** approximate {!action_triggers}: a CT edge's test *)
  trig_bwd : bool;
  fx_fwd : bool;  (** {!has_condition_effects}: EC/DC's test *)
  fx_bwd : bool;
}

(* One rule pair ready to detect: its cell, both rules' facts and its
   gate. [cond] is its conditions-overlap slot, which AR and both CT
   edges ask. A plan's pairs keep [cond = None] and each detection runs
   on a copy, so a plan asks the same solves every time it runs, on any
   domain. *)
type planned = {
  cell : cell_ctx;
  f1 : rule_facts;
  f2 : rule_facts;
  gate : gate;
  mutable cond : Solver.verdict option;
}

let planned_rules pl =
  ((pl.cell.fwd.s1.app, pl.f1.rf_rule), (pl.cell.fwd.s2.app, pl.f2.rf_rule))

(* The detectors' device question, sides derived on the fly. *)
let same_device ctx app1 app2 = matcher ctx (side ctx app1) (side ctx app2)

(* Run under the configured budget and, if the verdict is Unknown,
   retry once with an escalated budget before surfacing the undecided
   answer. *)
let solve_escalating ctx store f : Solver.verdict =
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

(* Every detector solve goes through here. With [config.reuse] a query
   this ctx already decided is answered from the memo, replaying the
   solver calls and escalations its first solve cost, so the counters
   read as if it had been solved again. Only Sat and Unsat are kept: a
   completed search does not depend on the budget, an Unknown does.
   While a fault plan is armed every query reaches the solver, where
   faults are injected. *)
let budgeted_solve ctx store f : Solver.verdict =
  if not ctx.config.reuse || Homeguard_solver.Fault.armed () then solve_escalating ctx store f
  else
    let key = (store, f) in
    match Memo.find_opt ctx.memo key with
    | Some a ->
      ctx.memo_answers <- ctx.memo_answers + 1;
      ctx.solver_calls <- ctx.solver_calls + a.calls;
      ctx.escalations <- ctx.escalations + a.escalated;
      a.verdict
    | None -> (
      let calls = ctx.solver_calls and escalations = ctx.escalations in
      match solve_escalating ctx store f with
      | Budget.Unknown _ as verdict -> verdict
      | verdict ->
        Memo.add ctx.memo key
          {
            verdict;
            calls = ctx.solver_calls - calls;
            escalated = ctx.escalations - escalations;
          };
        verdict)

let undecided_severity reason = Threat.Undecided (Budget.reason_to_string reason)

(* Solve through the fleet-shared verdict cache when one is configured.
   The hook receives the exact formula/store a local solve would use and
   the compute thunk is [budgeted_solve] itself, so a cache miss is
   byte-identical to running without a cache. *)
let cached_solve ctx ~kind v ~bindings store f =
  match ctx.config.shared_cache with
  | None -> budgeted_solve ctx store f
  | Some hook ->
    let a1 = v.s1.app.Rule.name and a2 = v.s2.app.Rule.name in
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

(* -- solver inputs ------------------------------------------------------------- *)

let qualified s f =
  let vars =
    List.map (fun x -> (x, qualify s.app.Rule.name x, var_type s x)) (Formula.free_vars f)
  in
  let formula = Formula.subst (List.map (fun (x, qx, _) -> (x, Term.Var qx)) vars) f in
  { formula; store = List.fold_left (fun st (_, qx, d) -> add_type qx d st) Store.empty vars; vars }

let compile s rf part =
  let eqs = List.map (fun (v, t) -> Formula.eq (Term.Var v) t) in
  let r = rf.rf_rule and c = rf.rf_rule.Rule.condition in
  qualified s
    (match part with
    | Cond -> Formula.conj (Formula.conj (eqs c.Rule.data @ [ c.Rule.predicate ]) :: eqs s.cons)
    | Sit -> Formula.conj (Rule.situation r :: eqs s.cons)
    | Trig -> (
      match r.Rule.trigger with Rule.Event e -> e.constraint_ | Rule.Scheduled _ -> Formula.True))

(* The [part] input of [rf] on side [s], built on first use; a rule from
   outside the app's rule list gets a fresh one. *)
let input s rf part =
  match Array.find_index (fun r -> r == rf) s.rules with
  | None -> compile s rf part
  | Some i -> (
    let slot = s.inputs.((3 * i) + match part with Cond -> 0 | Sit -> 1 | Trig -> 2) in
    match Atomic.get slot with
    | Some q -> q
    | None ->
      let q = compile s rf part in
      Atomic.set slot (Some q);
      q)

(* Satisfiability of two rules' combined formulas in the orientation of
   view [v]. The first rule's input is used as built; each variable of
   the second's that the unifier matches is renamed to the first app's
   device variable and typed there. *)
let solve_overlap ctx ~situation v fa fb =
  let part = if situation then Sit else Cond in
  let q1 = input v.s1 fa part and q2 = input v.s2 fb part in
  let sub, store =
    List.fold_left
      (fun (sub, store) (x, qx, d) ->
        match v.rename x with
        | None -> (sub, add_type qx d store)
        | Some x1 ->
          let qx1 = qualify v.s1.app.Rule.name x1 in
          ((qx, Term.Var qx1) :: sub, add_type qx1 (var_type v.s1 x1) store))
      ([], q1.store) q2.vars
  in
  let f2 = match sub with [] -> q2.formula | sub -> Formula.subst sub q2.formula in
  cached_solve ctx ~kind:(if situation then "sit" else "cond") v ~bindings:v.bindings store
    (Formula.conj [ q1.formula; f2 ])

(* The pair's conditions overlap, asked in the orientation of [v]. The
   solved formula is symmetric in the two rules, so with [reuse] one
   answer serves both orientations. *)
let conditions_overlap ctx p v fa fb =
  match p.cond with
  | Some r -> r
  | None ->
    let r = solve_overlap ctx ~situation:false v fa fb in
    if ctx.config.reuse then p.cond <- Some r;
    r

(* -- Action-Interference (AR, GC) ----------------------------------------- *)

let same_action_target same_device a1 a2 =
  match (a1.Rule.target, a2.Rule.target) with
  | Rule.Act_device v1, Rule.Act_device v2 -> same_device v1 v2
  | Rule.Act_location_mode, Rule.Act_location_mode -> true
  | _ -> false

let const_param a = match a.Rule.params with (Term.Int _ | Term.Str _) as t :: _ -> Some t | _ -> None

(* Contradictory commands: declared opposites, or same command with
   different constant parameters. *)
let commands_contradict (a1 : Rule.action) (a2 : Rule.action) =
  let opposite = commands_opposite a1.Rule.command a2.Rule.command in
  let conflicting_params =
    a1.Rule.command = a2.Rule.command
    &&
    match (const_param a1, const_param a2) with
    | Some p1, Some p2 -> p1 <> p2
    | _ -> false
  in
  opposite || conflicting_params

(* Actuator-Race candidate: some pair of actions issues contradictory
   commands to the same actuator. *)
let actions_race same_device (r1 : Rule.t) (r2 : Rule.t) =
  List.exists
    (fun a1 ->
      List.exists
        (fun a2 -> same_action_target same_device a1 a2 && commands_contradict a1 a2)
        r2.Rule.actions)
    r1.Rule.actions

let tagged v f1 f2 = ((v.s1.app, f1.rf_rule), (v.s2.app, f2.rf_rule))

(* AR uses the conditions-only overlap: the paper's formalism asks for
   identical triggers, but its evaluation reports races between rules
   whose independent triggers merely can co-occur (e.g. LetThereBeDark's
   door-close vs UndeadEarlyWarning's door-open, §VIII-B item 4), and
   Fig 9 has CT/SD/LT reusing "the solving result of AR" — which is
   exactly this conditions overlap. Mutually exclusive *conditions*
   still rule the race out. *)
let ar ctx p =
  let v = p.cell.fwd in
  let r1 = p.f1.rf_rule and r2 = p.f2.rf_rule in
  if p.gate.race then begin
    let t1, t2 = tagged v p.f1 p.f2 in
    let detail =
      Printf.sprintf "contradictory commands on the same actuator (%s vs %s)"
        (String.concat "," (List.map (fun a -> a.Rule.command) r1.Rule.actions))
        (String.concat "," (List.map (fun a -> a.Rule.command) r2.Rule.actions))
    in
    match conditions_overlap ctx p v p.f1 p.f2 with
    | Budget.Sat witness -> [ Threat.make Threat.AR t1 t2 ~witness detail ]
    | Budget.Unsat -> []
    | Budget.Unknown reason ->
      (* undecided overlap: the candidate is a *potential* race and must
         be reported, never silently treated as "no threat" *)
      [ Threat.make Threat.AR t1 t2 ~severity:(undecided_severity reason) detail ]
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

(* GC is the one category that asks the situation overlap, once per
   rule pair, so that answer needs no slot. *)
let gc ctx p =
  let v = p.cell.fwd in
  match p.gate.goals with
  | [] -> []
  | goal_pairs ->
    let t1, t2 = tagged v p.f1 p.f2 in
    let detail =
      Printf.sprintf "actions with contradictory goals over %s"
        (String.concat ", " (List.map Env.to_string goal_pairs))
    in
    match solve_overlap ctx ~situation:true v p.f1 p.f2 with
    | Budget.Sat witness -> [ Threat.make Threat.GC t1 t2 ~witness detail ]
    | Budget.Unsat -> []
    | Budget.Unknown reason ->
      [ Threat.make Threat.GC t1 t2 ~severity:(undecided_severity reason) detail ]

(* -- Trigger-Interference (CT, SD, LT) ------------------------------------ *)

(* Does action a1 of the view's first app satisfy the second app's rule
   f2's trigger?  Returns a human-readable channel description when it
   can. [~approx:true] skips the written-value compatibility solve
   (over-approximating: a value mismatch is treated as compatible) so
   the check is solver-free and usable as a planning pre-filter; it
   reads only [v.s1], [v.s2] and [v.same]. *)
let action_triggers ?(approx = false) ctx v a1 f2 =
  let r2 = f2.rf_rule and app2 = v.s2.app in
  match r2.Rule.trigger with
  | Rule.Scheduled _ -> None
  | Rule.Event { subject; attribute; constraint_ } -> (
    let subject_var () =
      match subject with
      | Rule.Device v2 -> v2 ^ "." ^ attribute
      | Rule.Location -> "location." ^ attribute
      | Rule.App_touch -> "app.touch"
    in
    (* way 1: direct attribute write *)
    let direct =
      List.find_map
        (fun (w : Channels.attr_write) ->
          let subject_matches =
            match (w.Channels.w_target, subject) with
            | Rule.Act_device v1, Rule.Device v2 ->
              w.Channels.w_attr = attribute && v.same v1 v2
            | Rule.Act_location_mode, Rule.Location -> attribute = "mode"
            | _ -> false
          in
          if not subject_matches then None
          else
            (* value compatibility: written value must satisfy the
               trigger constraint *)
            let value_ok =
              match w.Channels.w_value with
              | Some ((Term.Int _ | Term.Str _) as value) when not approx -> (
                let x = subject_var () and trig = input v.s2 f2 Trig in
                let qx = qualify app2.Rule.name x in
                let f = Formula.conj [ trig.formula; Formula.eq (Term.Var qx) value ] in
                let store = add_type qx (var_type v.s2 x) trig.store in
                match cached_solve ctx ~kind:"ct" v ~bindings:v.s2.qbind store f with
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
              let compatible =
                constraint_ = Formula.True
                || Channels.polarity_can_satisfy constraint_ (subject_var ()) pol
              in
              if compatible then
                Some
                  (Printf.sprintf "command %s changes %s sensed by %s's trigger"
                     a1.af_action.Rule.command (Env.to_string f) r2.Rule.rule_id)
              else None)
          a1.af_effects))

let same_rule v fa fb =
  fa.rf_rule.Rule.rule_id = fb.rf_rule.Rule.rule_id && v.s1.app.Rule.name = v.s2.app.Rule.name

(* A triggering edge from [fa] to [fb] in the orientation of [v]:
   [Some (witness, severity, detail)]. A decisive non-overlap kills the
   edge; an undecided overlap keeps it alive as a potential edge (no
   witness, [Undecided] severity). *)
let ct_edge ctx p v fa fb =
  if same_rule v fa fb then None
  else
    match List.find_map (fun a -> action_triggers ctx v a fb) fa.rf_actions with
    | None -> None
    | Some detail -> (
      match conditions_overlap ctx p v fa fb with
      | Budget.Sat witness -> Some (Some witness, Threat.Confirmed, detail)
      | Budget.Unsat -> None
      | Budget.Unknown reason -> Some (None, undecided_severity reason, detail))

(* The worse of two edge severities: a threat built from edges is only
   [Confirmed] when every contributing edge is. *)
let worst_severity s1 s2 = if Threat.is_undecided s1 then s1 else s2

let trigger_interference ctx p =
  let t1, t2 = tagged p.cell.fwd p.f1 p.f2 in
  let r1 = p.f1.rf_rule and r2 = p.f2.rf_rule in
  let e12 = if p.gate.trig_fwd then ct_edge ctx p p.cell.fwd p.f1 p.f2 else None in
  let e21 = if p.gate.trig_bwd then ct_edge ctx p p.cell.bwd p.f2 p.f1 else None in
  let ar_cand = p.gate.race in
  let edge_threat cat pa pb (witness, severity, detail) =
    { (Threat.make cat pa pb ~severity detail) with Threat.witness }
  in
  let ct_threats =
    (match e12 with
    | Some e -> [ edge_threat Threat.CT t1 t2 e ]
    | None -> [])
    @
    match e21 with
    | Some e -> [ edge_threat Threat.CT t2 t1 e ]
    | None -> []
  in
  let sd_threats =
    match (e12, ar_cand) with
    | Some (w, sev, _), true ->
      [
        edge_threat Threat.SD t1 t2
          ( w, sev,
            Printf.sprintf "%s triggers %s whose action undoes it" r1.Rule.rule_id
              r2.Rule.rule_id );
      ]
    | _ -> (
      match (e21, ar_cand) with
      | Some (w, sev, _), true ->
        [
          edge_threat Threat.SD t2 t1
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
        edge_threat Threat.LT t1 t2
          (w, worst_severity sev12 sev21, "rules trigger each other with contradictory actions");
      ]
    | _ -> []
  in
  ct_threats @ sd_threats @ lt_threats

(* -- Condition-Interference (EC, DC) -------------------------------------- *)

(* The two ways an action reaches a condition variable [(var, base,
   attr)]. Way 1: a direct write to the condition-tested attribute. *)
let write_reaches same_device (w : Channels.attr_write) (_, base, attr) =
  match (w.Channels.w_target, attr) with
  | Rule.Act_device v1, Some a when a = w.Channels.w_attr ->
    base <> "location" && same_device v1 base
  | Rule.Act_location_mode, Some "mode" -> base = "location"
  | _ -> false

(* Way 2: an environment effect on a sensed condition variable. *)
let effect_reaches (feature, _) (_, _, attr) = Channels.attr_senses feature attr

(* Does action a1 reach any of r2's condition variables? The
   allocation-free emptiness test of {!condition_effects}. *)
let has_condition_effects same_device a1 f2 =
  List.exists (fun w -> List.exists (write_reaches same_device w) f2.rf_cond_vars) a1.af_writes
  || List.exists (fun e -> List.exists (effect_reaches e) f2.rf_cond_vars) a1.af_effects

(* Effect constraints of action a1 on r2's condition variables. The
   predicate is used with data constraints expanded so pure bindings
   (e.g. [t = sensor.temperature] feeding only the trigger) don't count
   as condition state. *)
let condition_effects same_device a1 f2 =
  let direct =
    List.concat_map
      (fun (w : Channels.attr_write) ->
        List.filter_map
          (fun ((var, _, _) as cv) ->
            if not (write_reaches same_device w cv) then None
            else
              match w.Channels.w_value with
              | Some value -> Some (`Solve (Formula.Eq, "sets", var, value))
              | None -> Some (`Touches var))
          f2.rf_cond_vars)
      a1.af_writes
  in
  let { Rule.command; params; _ } = a1.af_action in
  let env_effects =
    List.concat_map
      (fun ((_, pol) as e) ->
        List.filter_map
          (fun ((var, _, _) as cv) ->
            if not (effect_reaches e cv) then None
            else
              match (params, pol) with
              | ((Term.Int _ | Term.Var _) as p) :: _, Effects.Incr
                when command = "setHeatingSetpoint" ->
                Some (`Solve (Formula.Ge, "raises", var, p))
              | ((Term.Int _ | Term.Var _) as p) :: _, Effects.Decr
                when command = "setCoolingSetpoint" ->
                Some (`Solve (Formula.Le, "lowers", var, p))
              | _ -> Some (`Dir (var, pol)))
          f2.rf_cond_vars)
      a1.af_effects
  in
  direct @ env_effects

(* [fa]'s actions against [fb]'s condition, where [v] is the cell seen
   from [fa]'s app and [back] from [fb]'s. *)
let condition_interference_dir ctx v back fa fb =
  if same_rule v fa fb then []
  else
    let all_effects =
      List.concat_map
        (fun a1 ->
          List.map (fun e -> (a1.af_action, e)) (condition_effects v.same a1 fb))
        fa.rf_actions
    in
    if all_effects = [] then []
    else
      let r2 = fb.rf_rule in
      let cond = input back.s1 fb Cond in
      (* an action's value or bound, over [fa]'s app: its variables
         imported as [solve_overlap] imports the second rule's, so a
         parameter that reads a shared device is the *same* solver
         variable as the one the condition tests *)
      let import_term t store =
        let xs = List.map (fun x -> (x, imported back x)) (Term.free_vars t) in
        ( Term.subst (List.map (fun (x, (qx, _)) -> (x, Term.Var qx)) xs) t,
          List.fold_left (fun store (_, (qx, d)) -> add_type qx d store) store xs )
      in
      let results =
        List.filter_map
          (fun (a1, effect) ->
            match effect with
            | `Solve (cmp, verb, var, t) -> (
              (* the effect on [var], one of the condition's variables
                 and typed in its store, merged with the condition *)
              let t, store = import_term t cond.store in
              let x = Term.Var (qualify back.s1.app.Rule.name var) in
              let f = Formula.conj [ cond.formula; Formula.atom cmp x t ] in
              let verb = Printf.sprintf "%s %s %s" a1.Rule.command verb var in
              let detail how = Printf.sprintf "%s %s %s's condition" verb how r2.Rule.rule_id in
              (* Sat: the write can enable the condition (EC, with
                 witness); a decisive Unsat: it provably falsifies it
                 (DC). Unknown is a *potential* EC — a tripped budget
                 must never masquerade as a proven DC. *)
              match cached_solve ctx ~kind:"fx" v ~bindings:back.bindings store f with
              | Budget.Sat w -> Some (Threat.EC, Some w, Threat.Confirmed, detail "enabling")
              | Budget.Unsat -> Some (Threat.DC, None, Threat.Confirmed, detail "disabling")
              | Budget.Unknown reason ->
                Some (Threat.EC, None, undecided_severity reason, detail "possibly enabling"))
            | `Dir (var, pol) ->
              let can = Channels.polarity_can_satisfy fb.rf_cond var pol in
              let opposite =
                Channels.polarity_can_satisfy fb.rf_cond var
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
      let t1, t2 = tagged v fa fb in
      List.filter_map
        (fun entry ->
          match entry with
          | Some (cat, witness, severity, detail) ->
            Some { (Threat.make cat t1 t2 ~severity detail) with Threat.witness }
          | None -> None)
        [ pick Threat.EC; pick Threat.DC ]

let condition_interference ctx p =
  let { fwd; bwd } = p.cell in
  (if p.gate.fx_fwd then condition_interference_dir ctx fwd bwd p.f1 p.f2 else [])
  @ if p.gate.fx_bwd then condition_interference_dir ctx bwd fwd p.f2 p.f1 else []

(* -- top level ------------------------------------------------------------- *)

(* All seven categories of one rule pair, in report order. *)
let detect ctx p = ar ctx p @ gc ctx p @ trigger_interference ctx p @ condition_interference ctx p

(* -- pre-filter gates --------------------------------------------------------- *)

(* The views the pre-filters read: sides and matchers, no unifier. *)
let prefilter_views (s1, s2) (same12, same21) =
  let rename _ = None in
  ( { s1; s2; same = same12; rename; bindings = [] },
    { s1 = s2; s2 = s1; same = same21; rename; bindings = [] } )

(* The gate every test of which failed, shared by most rule pairs. *)
let closed =
  { race = false; goals = []; trig_fwd = false; trig_bwd = false; fx_fwd = false; fx_bwd = false }

let meet k1 k2 = k1 land k2 <> 0

(* Could a check between a rule keyed [k1] and one keyed [k2] open? For
   two sides' unions: could any of their rule pairs'? *)
let keys_meet k1 k2 =
  meet k1.k_contra k2.k_cmd || meet k1.k_goal k2.k_goal
  || meet k1.k_writes (k2.k_trig lor k2.k_cond)
  || meet k2.k_writes (k1.k_trig lor k1.k_cond)

let may_trigger ctx v fa fb =
  List.exists (fun a -> action_triggers ~approx:true ctx v a fb <> None) fa.rf_actions

let may_reach_condition v fa fb =
  List.exists (fun a -> has_condition_effects v.same a fb) fa.rf_actions

(* The gate of one rule pair, given the app pair's views in both
   directions; the trigger and condition tests read only each view's
   sides and matcher. Each test runs only where the two rules' keys for
   it meet: a test that would open implies they do (DESIGN.md §7.2). *)
let facts_gate ctx (v12, v21) f1 f2 =
  let k1 = f1.rf_keys and k2 = f2.rf_keys in
  let race = meet k1.k_contra k2.k_cmd && actions_race v12.same f1.rf_rule f2.rf_rule
  and goals = if meet k1.k_goal k2.k_goal then conflicting_goal_pairs v12.same f1 f2 else []
  and trig_fwd = meet k1.k_writes k2.k_trig && may_trigger ctx v12 f1 f2
  and trig_bwd = meet k2.k_writes k1.k_trig && may_trigger ctx v21 f2 f1
  and fx_fwd = meet k1.k_writes k2.k_cond && may_reach_condition v12 f1 f2
  and fx_bwd = meet k2.k_writes k1.k_cond && may_reach_condition v21 f2 f1 in
  if race || goals <> [] || trig_fwd || trig_bwd || fx_fwd || fx_bwd then
    { race; goals; trig_fwd; trig_bwd; fx_fwd; fx_bwd }
  else closed

(* Could any category's analysis produce a threat? *)
let gate_open g = g != closed

(* A rule pair outside any plan: its cell context and gate built on the
   fly. *)
let plan_pair ctx ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  let s1 = side ctx app1 and s2 = side ctx app2 in
  let cell = cell_ctx ctx (s1, s2) (matcher ctx s1 s2, matcher ctx s2 s1) in
  let f1 = rule_facts s1 r1 and f2 = rule_facts s2 r2 in
  { cell; f1; f2; gate = facts_gate ctx (cell.fwd, cell.bwd) f1 f2; cond = None }

let on_the_fly detector ctx p1 p2 = detector ctx (plan_pair ctx p1 p2)
let detect_ar ctx = on_the_fly ar ctx
let detect_gc ctx = on_the_fly gc ctx
let detect_trigger_interference ctx = on_the_fly trigger_interference ctx
let detect_condition_interference ctx = on_the_fly condition_interference ctx

(** All CAI threats between two rules. *)
let detect_pair ctx (p1 : tagged_rule) (p2 : tagged_rule) =
  let app1, r1 = p1 and app2, r2 = p2 in
  if app1.Rule.name = app2.Rule.name && r1.Rule.rule_id = r2.Rule.rule_id then []
  else on_the_fly detect ctx p1 p2

(** Cheap, solver-free over-approximation of [detect_pair <> []]: the
    per-category candidate pre-filters (action targets, goal effects,
    attribute/environment channel maps) without any constraint solving.
    A pair that fails every pre-filter cannot produce a threat, so the
    planner drops it before scheduling. *)
let pair_candidate ctx ((app1, r1) : tagged_rule) ((app2, r2) : tagged_rule) =
  (not (app1.Rule.name = app2.Rule.name && r1.Rule.rule_id = r2.Rule.rule_id))
  &&
  let s1 = side ctx app1 and s2 = side ctx app2 in
  gate_open
    (facts_gate ctx
       (prefilter_views (s1, s2) (matcher ctx s1 s2, matcher ctx s2 s1))
       (rule_facts s1 r1) (rule_facts s2 r2))

(* -- planning and batched parallel execution ------------------------------- *)

(* For each rule of side [a], the rules of side [b] that pass the
   pre-filters, in order, each as its index and its planned pair. A cell
   whose sides' keys do not meet has none, and builds nothing; otherwise
   the device matchers are built once per cell, and the cell context
   once, when the first pair passes. *)
let candidates ctx ?unify a b =
  if not (keys_meet a.keys b.keys) then Array.make (Array.length a.rules) []
  else begin
    let matchers = (matcher ctx a b, matcher ctx b a) in
    let views = prefilter_views (a, b) matchers in
    let cell = ref None in
    let cell () =
      match !cell with
      | Some c -> c
      | None ->
        let c = cell_ctx ctx ?unify (a, b) matchers in
        cell := Some c;
        c
    in
    Array.map
      (fun f1 ->
        let js = ref [] in
        for j = Array.length b.rules - 1 downto 0 do
          let f2 = b.rules.(j) in
          let gate = facts_gate ctx views f1 f2 in
          if gate_open gate then js := (j, { cell = cell (); f1; f2; gate; cond = None }) :: !js
        done;
        !js)
      a.rules
  end

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
      (** planned pairs never audited because the run was cancelled
          (deadline or load shed). A result with [shed > 0] is
          incomplete and must be treated conservatively — it can
          support "threats found" but never "no threat" *)
}

let pair_label pl =
  let (app1, r1), (app2, r2) = planned_rules pl in
  Printf.sprintf "%s/%s ~ %s/%s" app1.Rule.name r1.Rule.rule_id app2.Rule.name
    r2.Rule.rule_id

let merge_ctx into c =
  into.solver_calls <- into.solver_calls + c.solver_calls;
  into.escalations <- into.escalations + c.escalations;
  into.undecided_solves <- into.undecided_solves + c.undecided_solves;
  into.memo_answers <- into.memo_answers + c.memo_answers

(* One planned pair's outcome: its threats, its failure, or [None] when
   the run was cancelled before the pair. *)
type outcome = (Threat.t list, failure) result option

(* Run a planned pair array with per-pair crash isolation: the only
   executor of every audit. One raising pair cannot tear down its batch
   or the audit. [jobs <= 1] detects sequentially in the caller's ctx;
   otherwise batches fan out across domains, each with its own ctx (the
   counters are not thread-safe), merged back before the coordinator
   retries each failed pair once. [cancel] is polled before every pair.
   Returns each pair's outcome, in plan order, and the number of
   retries; detection reads nothing but its planned pair, so the
   outcomes and the solver calls are identical for every [jobs]. *)
let run_pairs ~jobs ~cancel ctx (pairs : planned array) =
  let detect_one c pl : outcome =
    if cancel () then None
    else
      match detect c { pl with cond = None } with
      | ts -> Some (Ok ts)
      | exception e ->
        let info = Schedule.exn_info_of e in
        Some
          (Error
             {
               pair = pair_label pl;
               apps = (pl.cell.fwd.s1.app.Rule.name, pl.cell.fwd.s2.app.Rule.name);
               exn = info.Schedule.exn;
               backtrace = info.Schedule.backtrace;
             })
  in
  let outcomes =
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
        (List.mapi
           (fun i slot ->
             match slot with Some (os, _) -> os | None -> Array.make batch_sizes.(i) None)
           (Array.to_list results))
    end
  in
  let retried = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Error _) ->
        incr retried;
        outcomes.(i) <- detect_one ctx pairs.(i)
      | _ -> ())
    outcomes;
  (outcomes, !retried)

(* An audit's result, gathered in the flat order: threat lists and
   failures most recent first, and the shed count. *)
type gather = {
  mutable g_threats : Threat.t list list;
  mutable g_failures : failure list;
  mutable g_shed : int;
}

let gather () = { g_threats = []; g_failures = []; g_shed = 0 }

let gather_outcome g (o : outcome) =
  match o with
  | Some (Ok ts) -> g.g_threats <- ts :: g.g_threats
  | Some (Error f) -> g.g_failures <- f :: g.g_failures
  | None -> g.g_shed <- g.g_shed + 1

let has_undecided ts = List.exists (fun t -> Threat.is_undecided t.Threat.severity) ts

let gathered g ~retried =
  let threats = List.concat (List.rev g.g_threats) in
  {
    threats;
    undecided = List.length (List.filter (fun t -> Threat.is_undecided t.Threat.severity) threats);
    failures = List.rev g.g_failures;
    retried;
    shed = g.g_shed;
  }

let never () = false

(** Crash-isolated audit of an explicit pair plan. *)
let audit_pairs ?(jobs = 1) ?(cancel = never) ctx pairs =
  let outcomes, retried = run_pairs ~jobs ~cancel ctx pairs in
  let g = gather () in
  Array.iter (gather_outcome g) outcomes;
  gathered g ~retried

(* -- per-home pair index ----------------------------------------------------- *)

(* Slot of app pair [p < q] among [n] apps in a triangular array of
   [n * (n - 1) / 2] slots, row-major: all of [p]'s later partners in
   order. *)
let tri n p q = (p * ((2 * n) - p - 1) / 2) + (q - p - 1)

(* The empty slot: a pair never audited (same-name apps), one left to
   detect with no matrix to fill, or one the index does not keep.
   Compared physically, so no computed matrix is ever mistaken for
   it. *)
let no_matrix : pair_matrix = [| [||] |]

(* The last complete full audit of one home: its apps in install order,
   each app's bindings, and one slot per app pair holding the matrix
   that audit produced, or [no_matrix] where the pair crashed, held an
   [Undecided] threat or was skipped. *)
type pair_index = {
  mutable ix_apps : Rule.smartapp array;
  mutable ix_bindings : (string * Term.t) list array;
  mutable ix_slots : pair_matrix array;
  mutable ix_fp : string;  (** {!pair_fingerprint} the slots were built under *)
}

let create_pair_index () = { ix_apps = [||]; ix_bindings = [||]; ix_slots = [||]; ix_fp = "" }

(* Drop every slot in the rows and columns of the apps named [name]. *)
let invalidate_app ix name =
  let n = Array.length ix.ix_apps in
  Array.iteri
    (fun p (a : Rule.smartapp) ->
      if a.Rule.name = name then
        for q = 0 to n - 1 do
          if q <> p then ix.ix_slots.(tri n (min p q) (max p q)) <- no_matrix
        done)
    ix.ix_apps

(* For each app of this audit, its position in the index's audit when
   its slots may be reused there — the same app, physically (live
   installs and replay share one value per app), with structurally
   equal bindings — else [-1]. *)
let index_positions ix apps bindings =
  let pos = Hashtbl.create (Array.length ix.ix_apps) in
  Array.iteri (fun i (a : Rule.smartapp) -> Hashtbl.replace pos a.Rule.name i) ix.ix_apps;
  Array.mapi
    (fun p (a : Rule.smartapp) ->
      match Hashtbl.find_opt pos a.Rule.name with
      | Some i
        when ix.ix_apps.(i) == a && ix.ix_bindings.(i) = bindings.(p) ->
        i
      | _ -> -1)
    apps

(* -- the audit driver ---------------------------------------------------------- *)

(* One row of an audit: app [p] of the audit's apps against the partners
   [lo .. hi - 1]. Its cells are the app pairs (row app first) with
   each partner of another name. *)
type row = { p : int; lo : int; hi : int }

(* A full audit: every app against every later app. Its cells are laid
   out exactly as [tri n p q]. *)
let triangle n = Array.init n (fun p -> { p; lo = p + 1; hi = n })

(* A cell left to detect: its slot, its partner, per rule of the row app
   the partner rules that survived the pre-filters (each as its index
   and its planned pair), and its L1 key when a pair cache is
   configured. [keep] turns false when one of its pairs crashed, was
   shed or holds an [Undecided] threat: a crash or budget artifact, not
   a verdict, so never stored. *)
type cell = {
  slot : int;
  q : int;
  cand : (int * planned) list array;
  key : pair_audit option;
  mutable keep : bool;
}

(* Plan an audit of [rows] over [apps], row by row. A cell's matrix
   comes from the [index], else the L1 [pc], else the pre-filters; with
   a tier configured, a cell left to detect gets a fresh matrix in its
   slot. Returns the slots (one per cell, row-major), each row's cells
   to detect in partner order, the plan — row by row, each rule of the
   row app against every candidate of every cell to detect: the flat
   order — and each app's bindings ([||] without tiers). *)
let plan_rows ?index ~pc ctx apps rows =
  let n = Array.length apps in
  let tiered = Option.is_some pc || Option.is_some index in
  (* each app's bindings are read once per audit, so every key of the
     audit shares them physically *)
  let bindings = if tiered then Array.map ctx.config.app_constraints apps else [||] in
  (* [prev.(p)]: app [p]'s position among the index's [n_prev] apps, or -1 *)
  let prev, prev_slots, n_prev =
    match index with
    | Some ix when ix.ix_fp = ctx.pair_fp ->
      (index_positions ix apps bindings, ix.ix_slots, Array.length ix.ix_apps)
    | _ -> (Array.make n (-1), [||], 0)
  in
  (* each app's side, derived when a cell first needs it *)
  let sides = Array.make n None in
  let side_of q =
    match sides.(q) with
    | Some s -> s
    | None ->
      let s = if tiered then side_with apps.(q) bindings.(q) else side ctx apps.(q) in
      sides.(q) <- Some s;
      s
  in
  let slots = Array.make (Array.fold_left (fun acc r -> acc + r.hi - r.lo) 0 rows) no_matrix in
  let row_cells = Array.make (Array.length rows) [] in
  let plan = ref [] and base = ref 0 in
  Array.iteri
    (fun r { p; lo; hi } ->
      let a = apps.(p) in
      let cells = ref [] in
      for q = lo to hi - 1 do
        let b = apps.(q) in
        if b.Rule.name <> a.Rule.name then begin
          let k = !base + q - lo in
          let p' = prev.(p) and q' = prev.(q) in
          let reused = if p' >= 0 && q' > p' then prev_slots.(tri n_prev p' q') else no_matrix in
          if reused != no_matrix then slots.(k) <- reused
          else
            let key =
              Option.map
                (fun _ ->
                  {
                    pa_apps = (a, b);
                    pa_bindings = (bindings.(p), bindings.(q));
                    pa_unify = unify_pairs ctx (side_of p) (side_of q);
                    pa_fingerprint = ctx.pair_fp;
                  })
                pc
            in
            let hit = match (pc, key) with Some pc, Some pa -> pc.pair_lookup pa | _ -> None in
            match hit with
            | Some m -> slots.(k) <- m
            | None ->
              let sa = side_of p and sb = side_of q in
              let unify = Option.map (fun pa -> pa.pa_unify) key in
              let cand = candidates ctx ?unify sa sb in
              if tiered || Array.exists (function [] -> false | _ -> true) cand then begin
                if tiered then
                  slots.(k) <- Array.map (fun _ -> Array.make (Array.length sb.rules) []) cand;
                cells := { slot = k; q; cand; key; keep = true } :: !cells
              end
        end
      done;
      let cells = List.rev !cells in
      (* a row with no cell to detect emits nothing, facts or not *)
      (match cells with
      | [] -> ()
      | _ ->
        for i = 0 to Array.length (side_of p).rules - 1 do
          List.iter (fun c -> List.iter (fun (_, pl) -> plan := pl :: !plan) c.cand.(i)) cells
        done);
      row_cells.(r) <- cells;
      base := !base + hi - lo)
    rows;
  (slots, row_cells, Array.of_list (List.rev !plan), bindings)

(* The one audit driver: plan, run the plan through [run_pairs], then
   reassemble in the flat order — for each row and each rule of the row
   app, every cell in partner order, a tier's matrix row or the detected
   outcomes, which also fill the cell's fresh matrix. Kept cells are
   stored in L1; a complete audit (nothing shed) replaces the [index]. *)
let audit_rows ~jobs ~cancel ?index ~pc ctx apps rows =
  let slots, row_cells, plan, bindings = plan_rows ?index ~pc ctx apps rows in
  let outcomes, retried = run_pairs ~jobs ~cancel ctx plan in
  let g = gather () and next = ref 0 and base = ref 0 in
  Array.iteri
    (fun r { p; lo; hi } ->
      let cells = row_cells.(r) in
      for i = 0 to List.length apps.(p).Rule.rules - 1 do
        let pending = ref cells in
        for q = lo to hi - 1 do
          let k = !base + q - lo in
          let m = slots.(k) in
          match !pending with
          | c :: rest when c.slot = k ->
            pending := rest;
            List.iter
              (fun (j, _) ->
                let o = outcomes.(!next) in
                incr next;
                gather_outcome g o;
                match o with
                | Some (Ok ts) when m != no_matrix ->
                  m.(i).(j) <- ts;
                  if has_undecided ts then c.keep <- false
                | Some (Ok _) -> ()
                | _ -> c.keep <- false)
              c.cand.(i)
          | _ ->
            if m != no_matrix then Array.iter (fun ts -> g.g_threats <- ts :: g.g_threats) m.(i)
        done
      done;
      List.iter
        (fun c ->
          if not c.keep then slots.(c.slot) <- no_matrix
          else match (pc, c.key) with Some pc, Some pa -> pc.pair_store pa slots.(c.slot) | _ -> ())
        cells;
      base := !base + hi - lo)
    rows;
  (match index with
  | Some ix when g.g_shed = 0 ->
    ix.ix_apps <- apps;
    ix.ix_bindings <- bindings;
    ix.ix_slots <- slots;
    ix.ix_fp <- ctx.pair_fp
  | _ -> ());
  gathered g ~retried

(** The audit plan: every cross-app rule pair that survives the cheap
    pre-filters, in the deterministic sequential enumeration order — the
    full audit's plan with no tiers. *)
let candidate_pairs ctx (apps : Rule.smartapp list) =
  let apps = Array.of_list apps in
  let _, _, plan, _ = plan_rows ~pc:None ctx apps (triangle (Array.length apps)) in
  plan

(** Exhaustive pairwise audit over a set of apps (the corpus audit,
    §VIII-B): the triangle, through the [index] and the configured
    [pair_cache]. *)
let audit_all ?(jobs = 1) ?(cancel = never) ?index ctx (apps : Rule.smartapp list) =
  let apps = Array.of_list apps in
  audit_rows ~jobs ~cancel ?index ~pc:ctx.config.pair_cache ctx apps (triangle (Array.length apps))

(** Install-time audit of a newly installed app against every installed
    app of another name (the online flow, §IV-C): one row, new app
    first, consulting neither the index nor L1. *)
let audit_new_app ?(jobs = 1) ?(cancel = never) ctx (installed : Rule.smartapp list) new_app =
  let apps = Array.of_list (installed @ [ new_app ]) in
  let n = Array.length apps - 1 in
  audit_rows ~jobs ~cancel ~pc:None ctx apps [| { p = n; lo = 0; hi = n } |]

(** Threat-list view of the exhaustive audit, for callers that only
    consume the reports (the structured counts stay available via
    [audit_all]). *)
let detect_all ?jobs ctx apps = (audit_all ?jobs ctx apps).threats
