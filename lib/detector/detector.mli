(** The CAI threat detection engine (paper §VI): pairwise candidate
    filtering followed by overlapping-condition constraint solving, with
    memoized solver results shared across threat types (Fig 9).

    Every solve runs under a resource budget ({!Budget.spec}); an
    exhausted solve is retried once with an escalated budget and, if
    still undecided, surfaced as a *potential* threat ([Undecided]
    severity) rather than dropped. Pair detection is crash-isolated: a
    raising pair is retried once on the coordinator and otherwise lands
    in the audit's structured error summary. *)

module Rule = Homeguard_rules.Rule
module Budget = Homeguard_solver.Budget

type tagged_rule = Rule.smartapp * Rule.t

type solve_query = {
  q_kind : string;  (** "sit" | "cond" | "ct" | "fx" — debug partition *)
  q_apps : string * string;  (** order-normalized app-pair identity *)
  q_formula : Homeguard_solver.Formula.t;
  q_store : Homeguard_solver.Store.t;
  q_bindings : (string * Homeguard_solver.Term.t) list;
      (** per-home configuration-value equalities appearing in the
          formula (qualified, post-unification) — what an external
          cache abstracts into equivalence-class cells *)
  q_fingerprint : string;  (** {!solve_fingerprint} of the ctx config *)
}
(** One detector solve as described to a fleet-shared verdict cache.
    The formula and store are exactly what the local budgeted solve
    would receive; a hook must return either its compute thunk's result
    or a verdict byte-identical to it. *)

type device_input = {
  di_app : Rule.smartapp;
  di_var : string;
  di_device : (string * Effects.device_class) option;
      (** the capability and {!Effects.classify} class of a declared
          capability input; [None] for any other var *)
}
(** One input variable as the device relation sees it. {!app_facts}
    derives the descriptor of every declared capability input once, so
    a relation reads two precomputed fields instead of re-deriving
    them per cell. *)

type config = {
  same_device : device_input -> device_input -> bool;
      (** do two input variables denote the same device? The detector
          asks it once per input cell of the same-device relation and
          once per device question of a detector, always with the
          descriptors of the apps' facts (a bare [di_device = None]
          descriptor for a var that is not a declared capability
          input). It must depend only on the two descriptors; it may
          read [di_app] by name, as the recorder's device-id lookup
          does. *)
  app_constraints : Rule.smartapp -> (string * Homeguard_solver.Term.t) list;
  reuse : bool;
  budget : Budget.spec;
      (** per-solve resource budget; exhausted solves are retried once
          with {!Budget.escalate}, then reported [Undecided] *)
  escalate : bool;
      (** retry exhausted solves with an 8x budget (default). Disabled
          for deadline-derived budgets, where escalating the wall-clock
          timeout would outlive the request deadline it was cut from *)
  shared_cache :
    (solve_query -> (unit -> Homeguard_solver.Solver.verdict) -> Homeguard_solver.Solver.verdict)
    option;
      (** fleet-shared verdict cache hook ([None] = solve locally) *)
  pair_cache : pair_cache option;
      (** pair-level result cache: in [audit_all], a hit replaces
          planning and detection for the whole app pair ([None] = every
          pair is planned) *)
}

and pair_audit = {
  pa_apps : Rule.smartapp * Rule.smartapp;
      (** in home install order — detection is orientation-sensitive *)
  pa_bindings :
    (string * Homeguard_solver.Term.t) list * (string * Homeguard_solver.Term.t) list;
      (** [app_constraints] of each app, same order as [pa_apps] *)
  pa_unify : (string * string) list;
      (** the same-device relation over the two apps' device inputs —
          homes with different device assignments never share a key *)
  pa_fingerprint : string;  (** {!pair_fingerprint} of the ctx config *)
}
(** One whole app-pair audit as described to a pair-result cache. A hit
    skips candidate pre-filtering and every per-category analysis for
    the pair, so the key must cover both apps' rule structure, both
    configuration-binding sets and the solve fingerprint. *)

and pair_matrix = Threat.t list array array
(** Threats per rule pair: [m.(i).(j)] is [detect_pair] of the first
    app's rule [i] against the second app's rule [j]. *)

and pair_cache = {
  pair_lookup : pair_audit -> pair_matrix option;
  pair_store : pair_audit -> pair_matrix -> unit;
}

val solve_fingerprint : config -> string
(** The one cache-key fingerprint shared by the in-process overlap
    cache and any fleet-wide cache behind [shared_cache]: budget tier,
    solver A/B flags ({!Homeguard_solver.Solver.flags_fingerprint}),
    and the escalation switch. *)

val pair_fingerprint : config -> string
(** {!solve_fingerprint} plus the solver-result [reuse] switch — the
    pair-tier cache fingerprint. *)

val offline_same_device : device_input -> device_input -> bool
(** Same-capability matching with switch classes disambiguated by
    titles/descriptions; generic switches act as wildcards. Compares
    the two descriptors' [di_device] fields only. *)

val device_input : Rule.smartapp -> string -> device_input
(** A var's descriptor derived directly from the app's input
    declarations ({!Rule.capability_of_input}, {!Effects.classify}) —
    what {!app_facts} holds for each declared capability input. *)

val offline_config : config
(** Corpus-audit mode: device-type matching, no config constraints,
    {!Budget.default_spec} budgets. *)

(** {2 Planning facts}

    Everything the solver-free pre-filters and the detectors read about
    one app, derived once per ctx instead of once per rule pair. *)

type action_facts = {
  af_action : Rule.action;
  af_writes : Channels.attr_write list;  (** {!Channels.attribute_writes} *)
  af_effects : (Homeguard_st.Env_feature.t * Effects.polarity) list;
      (** {!Effects.effects_of_action} *)
}

type rule_facts = {
  rf_rule : Rule.t;  (** the rule itself (facts are found by identity) *)
  rf_actions : action_facts list;  (** one per action, in order *)
  rf_sensed : Homeguard_st.Env_feature.t option;
      (** {!Channels.sensed_feature_of_trigger} of the trigger *)
  rf_cond : Homeguard_solver.Formula.t;  (** {!Rule.expanded_predicate} *)
  rf_cond_vars : (string * string * string option) list;
      (** free vars of [rf_cond], each as (var, base, attr): ["t.temperature"]
          is [("t.temperature", "t", Some "temperature")] *)
}

type app_facts = {
  app_inputs : device_input list;
      (** {!Rule.device_inputs}, each as its {!device_input}
          descriptor *)
  app_rules : rule_facts list;  (** one per rule, in order *)
}

type caches
(** Per-ctx memo tables: one {!app_facts} record per app name (names
    are unique within an audit), the config's same-device relation per
    app pair, and the command-opposition map. One per ctx — worker
    domains each own a ctx, so the tables need no locking. *)

val create_caches : unit -> caches
(** Fresh tables, for sharing across ctxs via {!create}'s [?caches]:
    sound only when every sharing config's [same_device] behaves
    identically and equal app names mean equal apps across the sharing
    ctxs (the facts themselves are config-independent), and only from
    one domain at a time — the tables are unsynchronized. *)

type ctx = {
  config : config;
  overlap_cache : (string * string, Homeguard_solver.Solver.verdict) Hashtbl.t;
      (** keys carry the budget fingerprint, so an [Unknown] cached
          under a small budget never answers for a larger one *)
  caches : caches;  (** memoized solver-free planning facts *)
  fingerprint : string;  (** {!solve_fingerprint} of [config], memoized *)
  pair_fp : string;  (** {!pair_fingerprint} of [config], memoized *)
  mutable solver_calls : int;
  mutable escalations : int;  (** undecided solves retried with a bigger budget *)
  mutable undecided_solves : int;  (** solves undecided even after escalation *)
}

val create : ?caches:caches -> config -> ctx
(** A detection context. [?caches] shares planning facts and device
    matching with other ctxs — see {!create_caches} for when that is
    sound. *)

val app_facts : ctx -> Rule.smartapp -> app_facts
(** The app's planning facts, derived on first use in the ctx. *)

val same_device : ctx -> Rule.smartapp -> Rule.smartapp -> string -> string -> bool
(** [same_device ctx app1 app2 v1 v2]: the detectors' device question.
    Looks both vars' descriptors up among the apps' facts and asks
    [config.same_device] of them. *)

val situations_overlap :
  ctx -> tagged_rule -> tagged_rule -> Homeguard_solver.Solver.verdict
(** Joint satisfiability of both rules' trigger+condition formulas, with
    variables of matched devices unified. *)

val conditions_overlap :
  ctx -> tagged_rule -> tagged_rule -> Homeguard_solver.Solver.verdict
(** Conditions-only variant (memoized; shared by AR and CT/SD/LT). *)

val ar_candidate : ctx -> tagged_rule -> tagged_rule -> bool
val triggers_unify : ctx -> tagged_rule -> tagged_rule -> bool

val detect_ar : ctx -> tagged_rule -> tagged_rule -> Threat.t list
val detect_gc : ctx -> tagged_rule -> tagged_rule -> Threat.t list
val detect_trigger_interference : ctx -> tagged_rule -> tagged_rule -> Threat.t list
val detect_condition_interference : ctx -> tagged_rule -> tagged_rule -> Threat.t list

val detect_pair : ctx -> tagged_rule -> tagged_rule -> Threat.t list
(** All seven categories between two rules. *)

val pair_candidate : ctx -> tagged_rule -> tagged_rule -> bool
(** Solver-free over-approximation of [detect_pair <> []]: the
    per-category candidate pre-filters only. Used by the planner. *)

val candidate_pairs :
  ctx -> Rule.smartapp list -> (tagged_rule * tagged_rule) array
(** The audit plan: every cross-app rule pair surviving the cheap
    pre-filters, in the deterministic flat order — {!audit_all}'s plan
    with no pair cache or index. *)

(** {2 Crash-isolated audits} *)

type failure = {
  pair : string;
  apps : string * string;  (** the two app names, for failure attribution *)
  exn : string;
  backtrace : string;
}
(** One pair whose detection raised on both the worker attempt and the
    coordinator retry. *)

type audit_result = {
  threats : Threat.t list;
  undecided : int;  (** threats carrying an [Undecided] severity *)
  failures : failure list;  (** pairs whose detection crashed twice *)
  retried : int;  (** pairs retried on the coordinator after a crash *)
  shed : int;
      (** exactly the planned pairs that never ran because [?cancel]
          fired (deadline or load shed), in every audit; pairs a tier
          answered are never planned. [shed > 0] marks the result
          incomplete: it may support "threats found" but never "no
          threat" *)
}

val audit_pairs :
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  ctx ->
  (tagged_rule * tagged_rule) array ->
  audit_result
(** Run an explicit pair plan with per-pair crash isolation. Failed
    pairs are retried once on the coordinator domain; double failures
    land in [failures] (pair order), and the rest of the audit still
    completes. Threats, undecided set and failures are identical, and
    identically ordered, for every [~jobs] value.

    [?cancel] is polled cooperatively before every pair (and before each
    parallel batch): once it reports [true] the remaining pairs are
    counted in [shed] instead of audited, so an in-flight batched audit
    stops within one pair (sequential) or one batch (parallel) of the
    cancellation point. *)

val audit_new_app :
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  ctx ->
  Rule.smartapp list ->
  Rule.smartapp ->
  audit_result
(** Install-time flow: [app] against every app of [installed] with
    another name, in order — each rule of [app] against each of theirs
    that passes {!pair_candidate}, run as {!audit_pairs} runs a plan.
    It consults neither a pair cache nor an index: no full audit stores
    the new-app-first orientation. *)

type pair_index
(** One home's last complete full audit: its apps in install order,
    each app's bindings and one slot per app pair (one word each)
    sharing the matrix that audit produced. The owner must call
    {!invalidate_app} whenever anything [same_device] reads about an
    app changes; app values, bindings and the pair fingerprint are
    checked on every audit. *)

val create_pair_index : unit -> pair_index

val invalidate_app : pair_index -> string -> unit
(** Drop every slot in the rows and columns of the apps with this name
    (a configuration applied to it may have changed its device ids). *)

val audit_all :
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  ?index:pair_index ->
  ctx ->
  Rule.smartapp list ->
  audit_result
(** Exhaustive pairwise audit: every app against every later app of
    another name. Each app pair's matrix comes from [?index], else the
    config's [pair_cache], else the pre-filters, whose candidates join
    one plan run as {!audit_pairs} runs one ([~jobs], crash isolation,
    per-pair [?cancel]) whether or not a pair cache is configured; tier
    lookups and planning are not cancelled. The result is
    byte-identical to [audit_pairs ctx (candidate_pairs ctx apps)] at
    every job count. A detected pair's matrix is stored in the pair
    cache unless one of its pairs crashed twice, was shed or holds an
    [Undecided] threat.

    [?index] serves, with no planning, key or lookup, every app pair
    whose apps (same value, or structurally equal) and bindings are
    unchanged since its audit, in the same orientation, under the same
    {!pair_fingerprint}. A complete audit (nothing shed) replaces it,
    keeping no pair L1 would not store; a cancelled one leaves it. *)

val detect_all : ?jobs:int -> ctx -> Rule.smartapp list -> Threat.t list
(** [(audit_all ...).threats]. *)
