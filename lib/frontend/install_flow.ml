(** The one-time install-time decision flow (paper §IV-C, §VIII-D1).

    When a new app is installed: configuration arrives from the
    instrumented app, rules are fetched from the backend, threats are
    detected against everything already installed, and the user makes a
    single keep/reject/reconfigure decision. Accepted threat pairs join
    the Allowed list so future installs can detect chained threats. *)

module Rule = Homeguard_rules.Rule
module Rule_db = Homeguard_rules.Rule_db
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Chain = Homeguard_detector.Chain
module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator

type decision = Keep | Reject | Reconfigure

type report = {
  app : Rule.smartapp;
  rules_text : string;  (** rule interpreter output *)
  threats : Threat.t list;
  chains : Chain.chain list;
  threats_text : string;  (** threat interpreter output *)
  recommendations : (Threat.t * Policy.decision) list;
      (** each threat with the handling decision that will be enforced
          (explicit if the user already set one, else the default) *)
  handling_text : string;  (** rendered recommendations *)
  audit : Detector.audit_result;
      (** the structured install-time audit; [audit.shed > 0] means the
          detection was cut short (deadline/shed) and the threat list is
          a lower bound, never a clean bill *)
  quarantine_note : string option;
      (** set when the proposed app is quarantined (distinct
          recommendation: reject) or when quarantined installed apps
          were excluded from this audit *)
}

type t = {
  db : Rule_db.t;
  allowed : Chain.t;
  mutable pending : report option;
  detector_config : Detector.config;
  policies : Policy.store;  (** per-threat handling decisions *)
  mutable kept : Threat.t list;
      (** threats the user accepted at install time; these are what the
          runtime mediator enforces *)
  mutable quarantined : (string * string) list;
      (** poison apps (name, reason): excluded from detection and
          surfaced with a reject recommendation *)
}

let create ?(detector_config = Detector.offline_config) () =
  {
    db = Rule_db.create ();
    allowed = Chain.create ();
    pending = None;
    detector_config;
    policies = Policy.create ();
    kept = [];
    quarantined = [];
  }

let render_recommendations recs =
  recs
  |> List.map (fun (threat, d) ->
         Printf.sprintf "  [%s] %s" (Policy.threat_id threat) (Policy.describe d))
  |> String.concat "\n"

(* -- quarantine -------------------------------------------------------------- *)

let quarantine t name ~reason =
  if not (List.mem_assoc name t.quarantined) then
    t.quarantined <- t.quarantined @ [ (name, reason) ]

let unquarantine t name =
  let had = List.mem_assoc name t.quarantined in
  t.quarantined <- List.filter (fun (n, _) -> n <> name) t.quarantined;
  had

let quarantined t = t.quarantined
let is_quarantined t name = List.mem_assoc name t.quarantined

(* The installed apps minus quarantined ones, in install order: a
   poison app's rules must not be able to crash every later install's
   audit. *)
let detection_apps t =
  List.filter
    (fun (a : Rule.smartapp) -> not (is_quarantined t a.Rule.name))
    (Rule_db.installed_apps t.db)

let quarantine_note t (app : Rule.smartapp) =
  match List.assoc_opt app.Rule.name t.quarantined with
  | Some reason ->
    Some
      (Printf.sprintf
         "%s is quarantined (%s): its analysis keeps failing, so threats cannot be \
          ruled out — recommend Reject (or clear the quarantine first)"
         app.Rule.name reason)
  | None ->
    let excluded =
      List.filter (fun (n, _) -> Rule_db.find t.db n <> None) t.quarantined
    in
    if excluded = [] then None
    else
      Some
        (Printf.sprintf
           "quarantined app(s) excluded from this audit: %s — interference with them \
            cannot be ruled out"
           (String.concat ", " (List.map fst excluded)))

(** Step 1-3: collect config (already folded into [detector_config] when
    using a {!Homeguard_config.Recorder}), fetch rules, detect threats.
    Returns the report to present to the user. [?config] overrides the
    detector configuration for this proposal only (e.g. a
    deadline-derived budget); [?cancel] cooperatively cuts the audit
    short, leaving [report.audit.shed > 0]. *)
let propose ?config ?cancel t (app : Rule.smartapp) =
  let ctx = Detector.create (Option.value ~default:t.detector_config config) in
  let audit = Detector.audit_new_app ?cancel ctx (detection_apps t) app in
  let threats = audit.Detector.threats in
  let chains = Chain.find_chains t.allowed threats in
  let recommendations =
    List.map (fun threat -> (threat, Policy.decision_for t.policies threat)) threats
  in
  let report =
    {
      app;
      rules_text = Rule_interpreter.describe_app app;
      threats;
      chains;
      threats_text = Threat_interpreter.describe_all threats;
      recommendations;
      handling_text = render_recommendations recommendations;
      audit;
      quarantine_note = quarantine_note t app;
    }
  in
  t.pending <- Some report;
  report

exception No_pending_install

(* The one "keep" step, shared by a live [decide Keep] and replay:
   install the rules, allow the threat edges, remember the threats. *)
let keep t app threats =
  ignore (Rule_db.install t.db app);
  Chain.allow t.allowed threats;
  t.kept <- t.kept @ threats

(** Step 4: the user's one-time decision. [Keep] installs the app and
    records its threat pairs as allowed; [Reject] discards it;
    [Reconfigure] discards the proposal so the user can re-run with a
    different configuration. *)
let decide t decision =
  match t.pending with
  | None -> raise No_pending_install
  | Some report ->
    t.pending <- None;
    (match decision with
    | Keep -> keep t report.app report.threats
    | Reject | Reconfigure -> ())

(** Journal replay of a kept install: the same audit as {!propose}
    followed by the same {!keep} step, but no report — no chains, texts
    or recommendations — and [pending] is left untouched. *)
let replay_install t (app : Rule.smartapp) =
  let ctx = Detector.create t.detector_config in
  let audit = Detector.audit_new_app ctx (detection_apps t) app in
  keep t app audit.Detector.threats

let installed_apps t = Rule_db.installed_apps t.db

let pending t = t.pending

(** Remove an installed app: its rules leave the database, its kept
    threats leave the mediator's input, and its allowed edges leave the
    chain detector (rule ids are ["<app>#<n>"]). *)
let uninstall t name =
  Rule_db.uninstall t.db name;
  t.kept <-
    List.filter
      (fun (th : Threat.t) ->
        th.Threat.app1.Rule.name <> name && th.Threat.app2.Rule.name <> name)
      t.kept;
  Chain.disallow_prefix t.allowed (name ^ "#")

(* -- handling ---------------------------------------------------------------- *)

(** Override the handling decision for one threat (by stable id); in
    force for every mediator compiled afterwards. *)
let set_decision t threat_id decision = Policy.set_by_id t.policies threat_id decision

let policies t = t.policies

let kept_threats t = t.kept
let allowed_edges t = Chain.allowed_edges t.allowed

(** Compile the runtime reference monitor for everything kept so far,
    under the current decisions. *)
let mediator ?defer_delay_ms ?max_deferrals t =
  Mediator.create ?defer_delay_ms ?max_deferrals t.policies t.kept
