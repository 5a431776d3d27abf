(** The one-time install-time decision flow (paper §IV-C, §VIII-D1). *)

module Rule = Homeguard_rules.Rule

type decision = Keep | Reject | Reconfigure

type report = {
  app : Rule.smartapp;
  threats : Homeguard_detector.Threat.t list;
  chains : Homeguard_detector.Chain.chain list;
  recommendations :
    (Homeguard_detector.Threat.t * Homeguard_handling.Policy.decision) list;
  audit : Homeguard_detector.Detector.audit_result;
      (** structured install-time audit; [audit.shed > 0] marks a
          detection cut short by a deadline or load shed — the threat
          list is then a lower bound, never a clean bill *)
  quarantine_note : string option;
      (** the distinct recommendation when the proposed app is
          quarantined, or a warning that quarantined installed apps were
          excluded from the audit *)
}

(** {2 What the user reads}

    Rendered from the report when called, not at {!propose}: the
    install path itself never reads them. *)

val rules_text : report -> string
(** The app's rules, numbered ({!Rule_interpreter.describe_app}). *)

val threats_text : report -> string
(** The threats explained ({!Threat_interpreter.describe_all}). *)

val handling_text : report -> string
(** One line per recommendation: the threat's id and its decision. *)

type t

exception No_pending_install

val create : ?detector_config:Homeguard_detector.Detector.config -> unit -> t

val propose :
  ?config:Homeguard_detector.Detector.config ->
  ?cancel:(unit -> bool) ->
  t ->
  Rule.smartapp ->
  report
(** Detect threats against the installed home; the report is what the
    user sees. [?config] overrides the detector configuration for this
    proposal only (deadline-derived budgets); [?cancel] cooperatively
    cuts the audit short. Quarantined apps are excluded from detection
    and noted in [quarantine_note]. *)

val decide : t -> decision -> unit
(** [Keep] installs and records the threat pairs as allowed; [Reject]
    and [Reconfigure] discard the proposal. *)

val replay_install : t -> Rule.smartapp -> unit
(** Recovery's replay of a kept install: runs the install-time audit
    against the installed home and applies the same keep step as
    [decide Keep], without building a report (no chains or
    recommendations). [pending] is left untouched. *)

val installed_apps : t -> Rule.smartapp list

val pending : t -> report option
(** The proposal awaiting a decision, if any. *)

val uninstall : t -> string -> unit
(** Remove an installed app and its kept threats. *)

(** {2 Poison-app quarantine}

    A quarantined app stays installed but its rules are excluded from
    every subsequent install-time detection (a poison app must not be
    able to crash every later audit), and proposals involving it carry a
    distinct reject recommendation in [quarantine_note]. Durability is
    the caller's concern ({!Homeguard_store.Home} journals quarantine
    events and replays them back through these setters). *)

val quarantine : t -> string -> reason:string -> unit
val unquarantine : t -> string -> bool
(** [false] when the app was not quarantined. *)

val quarantined : t -> (string * string) list
(** [(app, reason)] pairs, in quarantine order. *)

val is_quarantined : t -> string -> bool

val set_decision : t -> string -> Homeguard_handling.Policy.decision -> unit
(** Override the handling decision for a threat (by stable id); applies
    to every mediator compiled afterwards. *)

val policies : t -> Homeguard_handling.Policy.store

val kept_threats : t -> Homeguard_detector.Threat.t list
(** Threats accepted (via [Keep]) so far: the Allowed list chain
    detection extends, and the mediator's input. *)

val mediator : t -> Homeguard_handling.Mediator.t
(** Compile the runtime reference monitor over all kept threats under
    the current decisions. *)
