(** The one-time install-time decision flow (paper §IV-C, §VIII-D1).

    When a new app is installed: configuration arrives from the
    instrumented app, rules are fetched from the backend, threats are
    detected against everything already installed, and the user makes a
    single keep/reject/reconfigure decision. Accepted threat pairs join
    the Allowed list (the kept threats) so future installs can detect
    chained threats. *)

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
  threats : Threat.t list;
  chains : Chain.chain list;
  recommendations : (Threat.t * Policy.decision) list;
      (** each threat with the handling decision that will be enforced
          (explicit if the user already set one, else the default) *)
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
  mutable pending : report option;
  detector_config : Detector.config;
  policies : Policy.store;  (** per-threat handling decisions *)
  mutable kept_rev : Threat.t list;
      (** threats the user accepted at install time, latest first: the
          Allowed list chain detection extends, and what the runtime
          mediator enforces *)
  mutable quarantined_rev : (string * string) list;
      (** poison apps (name, reason), latest first: excluded from
          detection and surfaced with a reject recommendation *)
}

let create ?(detector_config = Detector.offline_config) () =
  {
    db = Rule_db.create ();
    pending = None;
    detector_config;
    policies = Policy.create ();
    kept_rev = [];
    quarantined_rev = [];
  }

(* -- what the user reads, rendered on demand ------------------------------------ *)

let rules_text r = Rule_interpreter.describe_app r.app
let threats_text r = Threat_interpreter.describe_all r.threats

let handling_text r =
  r.recommendations
  |> List.map (fun (threat, d) ->
         Printf.sprintf "  [%s] %s" (Policy.threat_id threat) (Policy.describe d))
  |> String.concat "\n"

(* -- quarantine -------------------------------------------------------------- *)

let quarantine t name ~reason =
  if not (List.mem_assoc name t.quarantined_rev) then
    t.quarantined_rev <- (name, reason) :: t.quarantined_rev

let unquarantine t name =
  let had = List.mem_assoc name t.quarantined_rev in
  t.quarantined_rev <- List.filter (fun (n, _) -> n <> name) t.quarantined_rev;
  had

let quarantined t = List.rev t.quarantined_rev
let is_quarantined t name = List.mem_assoc name t.quarantined_rev

(* The installed apps minus quarantined ones, in install order: a
   poison app's rules must not be able to crash every later install's
   audit. *)
let detection_apps t =
  List.filter
    (fun (a : Rule.smartapp) -> not (is_quarantined t a.Rule.name))
    (Rule_db.installed_apps t.db)

let quarantine_note t (app : Rule.smartapp) =
  match List.assoc_opt app.Rule.name t.quarantined_rev with
  | Some reason ->
    Some
      (Printf.sprintf
         "%s is quarantined (%s): its analysis keeps failing, so threats cannot be \
          ruled out — recommend Reject (or clear the quarantine first)"
         app.Rule.name reason)
  | None ->
    let excluded =
      List.filter (fun (n, _) -> Rule_db.mem t.db n) (quarantined t)
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
    Returns the report to present to the user; its texts are rendered
    only when read. [?config] overrides the detector configuration for
    this proposal only (e.g. a deadline-derived budget); [?cancel]
    cooperatively cuts the audit short, leaving [report.audit.shed > 0]. *)
let propose ?config ?cancel t (app : Rule.smartapp) =
  let ctx = Detector.create (Option.value ~default:t.detector_config config) in
  let audit = Detector.audit_new_app ?cancel ctx (detection_apps t) app in
  let threats = audit.Detector.threats in
  let chains = Chain.find_chains t.kept_rev threats in
  let recommendations =
    List.map (fun threat -> (threat, Policy.decision_for t.policies threat)) threats
  in
  let report =
    {
      app;
      threats;
      chains;
      recommendations;
      audit;
      quarantine_note = quarantine_note t app;
    }
  in
  t.pending <- Some report;
  report

exception No_pending_install

(* The one "keep" step, shared by a live [decide Keep] and replay:
   install the rules, remember the threats. *)
let keep t app threats =
  Rule_db.install t.db app;
  t.kept_rev <- List.rev_append threats t.kept_rev

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

(** Remove an installed app: its rules leave the database and its kept
    threats leave the Allowed list and the mediator's input. *)
let uninstall t name =
  Rule_db.uninstall t.db name;
  t.kept_rev <-
    List.filter
      (fun (th : Threat.t) ->
        th.Threat.app1.Rule.name <> name && th.Threat.app2.Rule.name <> name)
      t.kept_rev

(* -- handling ---------------------------------------------------------------- *)

(** Override the handling decision for one threat (by stable id); in
    force for every mediator compiled afterwards. *)
let set_decision t threat_id decision = Policy.set_by_id t.policies threat_id decision

let policies t = t.policies

let kept_threats t = List.rev t.kept_rev

(** Compile the runtime reference monitor for everything kept so far,
    under the current decisions. *)
let mediator t = Mediator.create t.policies (kept_threats t)
