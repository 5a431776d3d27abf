(** Durable per-home state: a write-ahead journal in front of the
    in-memory {!Homeguard_rules.Rule_db} + {!Homeguard_config.Recorder}
    + {!Homeguard_frontend.Install_flow} triple. Every state change is
    journaled (and fsynced) before it applies; {!open_} replays the
    snapshot + journal of its {!Surface} — truncating torn tails,
    quarantining corrupt records — to reconstruct the exact pre-crash
    state, including the inputs of the compiled mediator. *)

module Rule = Homeguard_rules.Rule
module Detector = Homeguard_detector.Detector
module Recorder = Homeguard_config.Recorder
module Install_flow = Homeguard_frontend.Install_flow
module Policy = Homeguard_handling.Policy

type t

(** How the detector matches devices across apps: [Mixed] (default)
    uses offline device-type matching plus the recorder's configured
    value constraints; [Online] requires exact recorded device ids. *)
type mode = Mixed | Online

type recovery_report = {
  snapshot_records : int;
  journal_records : int;
  skipped_events : int;  (** records that recovered but would not decode *)
  torn_bytes : int;  (** truncated torn-tail bytes across both files *)
  quarantined : int;  (** corrupt records moved to sidecar files *)
  changed_apps : string list;
      (** apps installed at or after the first damaged record — the
          incremental re-audit set for {!reaudit_changed} *)
  repaired_replicas : int;
      (** replica files rewritten or recreated by merged recovery *)
  healed_records : int;
      (** records restored to replicas that had lost them *)
  all_replicas_damaged : bool;
      (** some file's every replica was damaged or missing — only then
          can this recovery have lost acknowledged records *)
  epoch : int;  (** the effective ownership epoch granted to this open *)
}

val open_ :
  ?fsync:bool ->
  ?mode:mode ->
  ?configure:(Detector.config -> Detector.config) ->
  ?replicas:string list ->
  ?epoch:int ->
  dir:string ->
  unit ->
  t * recovery_report
(** Open (creating if needed) the home rooted at [dir], recovering
    [dir/snapshot] and [dir/journal] and replaying both. Sequenced
    deliveries pass an ingest window of 64. [configure]
    post-processes the detector configuration (e.g. to attach a shared
    verdict cache) before any audit uses it.

    [replicas] adds further replica directories: recovery merges every
    record surviving on at least one replica (read-repair), and every
    append goes to all replicas in order. [epoch] makes this a {e
    fenced} open: the effective epoch is the larger of [epoch] and one
    past the on-disk floor, it is registered with {!Fence} under [dir],
    stamped into every frame, and journaled as an [Epoch] event — after
    which any writer still holding an older epoch for this home gets
    {!Fence.Stale} instead of a durable append. Without [epoch] the home
    adopts the floor found on disk (standalone CLI use). *)

val close : t -> unit

(** {2 Install flow (journaled)} *)

exception No_pending_install

val propose :
  ?budget:Homeguard_solver.Budget.spec ->
  ?cancel:(unit -> bool) ->
  t ->
  Rule.smartapp ->
  Install_flow.report
(** [?budget] replaces the per-solve budget for this proposal only
    (typically a deadline-derived {!Homeguard_solver.Budget.of_deadline}
    spec; escalation is disabled so no retry outlives the request
    deadline); [?cancel] cuts the audit short cooperatively, leaving
    [report.audit.shed > 0]. *)

val decide : t -> Install_flow.decision -> unit
(** [Keep] journals the full rule file before installing, and installs
    as replaying that record does: an app already installed with an
    identical rule file is left as it is and nothing is journaled; one
    installed with another rule file is uninstalled first. [Reject] and
    [Reconfigure] touch no durable state.
    @raise No_pending_install when nothing was proposed. *)

type install_outcome =
  | Installed of Install_flow.report
  | Updated of Install_flow.report  (** same name, different rules: reinstall *)
  | Unchanged  (** identical rule file already installed *)

val install_app : t -> Rule.smartapp -> install_outcome
(** Idempotent propose + [Keep]; re-running a workload after crash
    recovery converges through this path. *)

val uninstall : t -> string -> bool
(** [false] when no such app is installed. *)

(** {2 Configuration ingestion (journaled)} *)

type delivery =
  | Accepted of Ingest.outcome
  | Malformed of string  (** rejected before journaling *)

val record_uri : t -> string -> delivery
(** An unsequenced configuration URI from a trusted, in-order source. *)

val deliver : t -> seq:int -> string -> delivery
(** A sequenced delivery from the lossy transport: deduplicated and
    reordered through the ingest window; each applied message journals
    a [Config] event carrying its sequence number. *)

val last_seq : t -> int
(** Contiguous ingestion watermark — the ack to return to senders. *)

(** {2 Handling} *)

val set_decision : t -> string -> Policy.decision -> unit

(** {2 Poison-app quarantine (journaled)}

    A quarantined app stays installed but is excluded from every batch
    audit and install-time detection, and proposals involving it carry a
    distinct recommendation. Quarantine events are journaled before they
    apply and re-emitted by {!compact}, so quarantine survives restarts
    and compaction. *)

val quarantine : t -> app:string -> reason:string -> unit
(** Idempotent: quarantining an already-quarantined app journals
    nothing. *)

val unquarantine : t -> string -> bool
(** [false] when the app was not quarantined (nothing journaled). *)

val quarantined : t -> (string * string) list
(** [(app, reason)] pairs, in quarantine order. *)

val is_quarantined : t -> string -> bool

(** {2 Inspection} *)

val installed_apps : t -> Rule.smartapp list
val flow : t -> Install_flow.t
val recorder : t -> Recorder.t
val config : t -> Detector.config
val dir : t -> string
(** The primary replica directory, also the home's fence key. *)

val surface : t -> Surface.t
(** The home's snapshot and journal on every replica directory;
    {!Surface.scrub} on it is the live home's anti-entropy pass. *)

val epoch : t -> int
(** The effective ownership epoch this open stamps on appends. *)

val state_text : t -> string
(** Canonical rendering of every piece of durable state — installed rule
    files, kept threats, decisions, configs, quarantine, ingestion
    watermark — without running any audit. Two recoveries of the same
    journal must produce byte-identical [state_text] (the fleet's
    replay-determinism invariant); unlike {!audit_text} it costs no
    detection pass, so it is checkable per-home at fleet scale. *)

val state_digest : t -> string
(** Hex digest of {!state_text}. *)

(** {2 Maintenance} *)

val compact : t -> unit
(** Fold the history into a minimal snapshot (configs, installed apps,
    explicit decisions, ingestion watermark) and truncate the journal;
    both replacements are atomic renames and a crash between them is
    absorbed by idempotent replay. All replicas are rewritten. *)

(** {2 Re-audit} *)

val audit : ?jobs:int -> ?cancel:(unit -> bool) -> t -> Detector.audit_result
(** Full re-audit of the installed (non-quarantined) apps. [?cancel]
    cuts the batched run short; skipped pairs are counted in
    [audit_result.shed], never reported threat-free. With a shared
    verdict cache configured the home keeps a {!Detector.pair_index}: an
    app pair untouched since the last complete re-audit is served from
    it, and applying a configuration drops the configured app's pairs. *)

val audit_text : t -> string
(** Canonical rendering of a full re-audit plus the durable state
    feeding the mediator; recovery's acceptance invariant is that this
    is byte-identical before a crash and after replay. *)

val reaudit_changed :
  ?jobs:int -> t -> recovery_report -> (string * Detector.audit_result) list
(** Incremental install-time re-audit of each recovered-but-suspect app
    against the rest of the home. *)
