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

type config = {
  same_device : Rule.smartapp -> string -> Rule.smartapp -> string -> bool;
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
      (** pair-level result cache: [audit_all] groups its plan by app
          pair, and a hit replaces planning and detection for the whole
          pair ([None] = plan flat) *)
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

val offline_same_device : Rule.smartapp -> string -> Rule.smartapp -> string -> bool
(** Same-capability matching with switch classes disambiguated by
    titles/descriptions; generic switches act as wildcards. *)

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
  app_inputs : (string * string * Effects.device_class) list;
      (** {!Rule.device_inputs}, each with its capability and
          {!Effects.classify} class *)
  app_rules : rule_facts list;  (** one per rule, in order *)
}

type caches
(** Per-ctx memo tables: one {!app_facts} record per app name (names
    are unique within an audit), the config's same-device answers per
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
    pre-filters, in the deterministic sequential enumeration order. *)

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
      (** pairs never audited because [?cancel] fired (deadline or load
          shed). [shed > 0] marks the result incomplete: it may support
          "threats found" but never "no threat" *)
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
  Homeguard_rules.Rule_db.t ->
  Rule.smartapp ->
  audit_result
(** Install-time flow: the new app against every installed rule. *)

val audit_all :
  ?jobs:int -> ?cancel:(unit -> bool) -> ctx -> Rule.smartapp list -> audit_result
(** Exhaustive pairwise audit across distinct apps. With [~jobs] > 1
    each domain detects on its own ctx; per-domain caches and counters
    are merged back before the coordinator retries any failed pair.
    With a [pair_cache] configured the plan is instead grouped by app
    pair on the coordinator ([jobs] is ignored) and cache hits replace
    planning and detection wholesale; output is byte-identical to the
    flat plan at every job count. A cancelled grouped audit sheds
    remaining groups whole, counting their full rule-pair cross
    product ([shed > 0] iff incomplete, as in the flat plan). *)

val detect_new_app :
  ?jobs:int -> ctx -> Homeguard_rules.Rule_db.t -> Rule.smartapp -> Threat.t list
(** [(audit_new_app ...).threats]. *)

val detect_all : ?jobs:int -> ctx -> Rule.smartapp list -> Threat.t list
(** [(audit_all ...).threats]. *)
