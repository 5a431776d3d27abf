(** The durable per-home state: a write-ahead journal in front of the
    in-memory {!Rule_db} + {!Recorder} + {!Install_flow} triple.

    Every state-changing operation — keeping an app, uninstalling one,
    recording a configuration URI, overriding a handling decision — is
    appended to the journal (and fsynced) {e before} it mutates the
    in-memory state, so a crash at any instant loses at most the
    operation in flight. {!open_} recovers through {!Surface.recover},
    which merges the replicas, truncates torn tails and quarantines
    corrupted records, then replays the snapshot and journal events in
    order; install events re-run the install-time detection
    ({!Install_flow.replay_install}: the audit and the [Keep] step,
    without rendering a report), which is deterministic, so the
    recovered state — rule database, recorder bindings, allowed list,
    kept threats and hence the compiled mediator — matches the
    pre-crash state exactly.

    Replay is idempotent (duplicate installs, configs and decisions are
    absorbed), which makes the two windows a crash can leave behind —
    a journal holding events already folded into a fresh snapshot, and
    a client re-running its workload after recovery — both harmless.

    Sequenced configuration deliveries ({!deliver}) go through an
    {!Ingest} receiver: duplicates are dropped, bounded out-of-order
    arrivals are buffered, and the contiguous watermark survives
    recovery (it is journaled with each applied config and re-emitted by
    compaction as a [Watermark] event). *)

module Rule = Homeguard_rules.Rule
module Rule_db = Homeguard_rules.Rule_db
module Rule_json = Homeguard_rules.Rule_json
module Recorder = Homeguard_config.Recorder
module Config_uri = Homeguard_config.Config_uri
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Install_flow = Homeguard_frontend.Install_flow
module Threat_interpreter = Homeguard_frontend.Threat_interpreter
module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator

type mode = Mixed | Online

type t = {
  surface : Surface.t;
      (** the home's files; its writer stamps the effective ownership
          epoch and is fenced under the primary directory *)
  recorder : Recorder.t;
  flow : Install_flow.t;
  dconfig : Detector.config;
  index : Detector.pair_index option;
      (** the last full re-audit's per-pair results, kept only when
          [dconfig] has a shared verdict cache; {!apply_config}
          invalidates *)
  mutable configs : (string * (int option * string)) list;
      (** app -> (seq, last raw URI), oldest-first; compaction's source *)
  mutable ingest : Ingest.t option;
  mutable skipped : int;  (** replayed records that would not decode *)
}

type recovery_report = {
  snapshot_records : int;
  journal_records : int;
  skipped_events : int;
  torn_bytes : int;
  quarantined : int;
  changed_apps : string list;
      (** apps installed at or after the first damaged record — the
          incremental re-audit set *)
  repaired_replicas : int;
      (** replica files rewritten or recreated by merged recovery *)
  healed_records : int;
      (** records restored to replicas that had lost them *)
  all_replicas_damaged : bool;
      (** some file's every replica was damaged or missing — only then
          can this recovery have lost acknowledged records *)
  epoch : int;  (** the effective ownership epoch granted to this open *)
}

let detector_config mode recorder =
  match mode with
  | Online -> Recorder.detector_config recorder
  | Mixed ->
    (* offline device-type matching (no instrumented bindings needed)
       but the recorder's configured values still constrain the solver *)
    {
      Detector.offline_config with
      Detector.app_constraints = (fun app -> Recorder.app_constraints recorder app);
    }

let ingest t =
  match t.ingest with Some i -> i | None -> invalid_arg "Home: no ingest receiver"

let installed_apps t = Install_flow.installed_apps t.flow

let find_installed t name =
  List.find_opt (fun (a : Rule.smartapp) -> a.Rule.name = name) (installed_apps t)

let last_seq t = Ingest.ack (ingest t)
let flow t = t.flow
let recorder t = t.recorder
let config t = t.dconfig

(* -- state mutation (no journaling; shared by live ops and replay) ----------- *)

let set_config t app_name ~seq uri =
  if List.mem_assoc app_name t.configs then
    t.configs <-
      List.map (fun (n, v) -> if n = app_name then (n, (seq, uri)) else (n, v)) t.configs
  else t.configs <- t.configs @ [ (app_name, (seq, uri)) ]

let apply_config t ~seq uri =
  match Config_uri.decode uri with
  | u ->
    Recorder.record_uri t.recorder u;
    (* the recorder's only writer: in Online mode the app's device ids,
       and so its pairs' device relation, may have changed *)
    Option.iter (fun ix -> Detector.invalidate_app ix u.Config_uri.app_name) t.index;
    set_config t u.Config_uri.app_name ~seq uri
  | exception Config_uri.Malformed _ -> t.skipped <- t.skipped + 1

let same_rule_file a b = a == b || Rule_json.to_string a = Rule_json.to_string b

(** Idempotent event application: replaying a journal whose events were
    already (partially) folded into the state leaves it unchanged. *)
let apply_event t = function
  | Event.Install app -> (
    match find_installed t app.Rule.name with
    | Some existing when same_rule_file existing app -> ()
    | Some _ ->
      Install_flow.uninstall t.flow app.Rule.name;
      Install_flow.replay_install t.flow app
    | None -> Install_flow.replay_install t.flow app)
  | Event.Uninstall name -> Install_flow.uninstall t.flow name
  | Event.Config { seq; uri } ->
    let stale = match seq with Some s -> s <= Ingest.ack (ingest t) | None -> false in
    if not stale then begin
      apply_config t ~seq uri;
      Option.iter (Ingest.force_last (ingest t)) seq
    end
  | Event.Decision { threat_id; decision } ->
    Install_flow.set_decision t.flow threat_id decision
  | Event.Watermark n -> Ingest.force_last (ingest t) n
  | Event.Quarantine { app; reason } -> Install_flow.quarantine t.flow app ~reason
  | Event.Unquarantine app -> ignore (Install_flow.unquarantine t.flow app)
  | Event.Epoch _ -> () (* recovery reads the epoch off the frames *)

(* -- journaled operations ---------------------------------------------------- *)

let log_event t ev = Surface.append t.surface (Event.to_string ev)

(* Append an event, then apply it as replay will: live and replayed
   state take the same transition. *)
let journal t ev =
  log_event t ev;
  apply_event t ev

(** Install-time proposal. [?budget] replaces the per-solve budget for
    this proposal only (a deadline-derived {!Budget.of_deadline} spec;
    escalation is disabled so no solve outlives the request deadline);
    [?cancel] cuts the audit short cooperatively. *)
let propose ?budget ?cancel t app =
  let config =
    Option.map
      (fun b -> { t.dconfig with Detector.budget = b; Detector.escalate = false })
      budget
  in
  Install_flow.propose ?config ?cancel t.flow app

exception No_pending_install = Install_flow.No_pending_install

(** The user's install-time verdict. [Keep] is journaled (the full rule
    file) before it takes effect, and takes effect as replaying that
    record does ({!apply_event}): an app already installed with an
    identical rule file stays as it is and nothing is journaled, and
    one installed with another rule file is uninstalled first.
    [Reject]/[Reconfigure] change no durable state. *)
let decide t decision =
  match decision with
  | Install_flow.Keep -> (
    match Install_flow.pending t.flow with
    | None -> raise No_pending_install
    | Some r -> (
      let app = r.Install_flow.app in
      match find_installed t app.Rule.name with
      | Some existing when same_rule_file existing app ->
        (* drop the proposal: the app is installed already *)
        Install_flow.decide t.flow Install_flow.Reject
      | existing ->
        (* not [journal]: [Keep] installs the pending report's threats
           instead of auditing the app again *)
        log_event t (Event.Install app);
        if Option.is_some existing then Install_flow.uninstall t.flow app.Rule.name;
        Install_flow.decide t.flow Install_flow.Keep))
  | Install_flow.Reject | Install_flow.Reconfigure -> Install_flow.decide t.flow decision

type install_outcome =
  | Installed of Install_flow.report
  | Updated of Install_flow.report
  | Unchanged

(** Idempotent one-shot install: propose + [Keep], skipping apps already
    installed with an identical rule file and reinstalling (config
    update) apps whose rules changed. Re-running a whole workload after
    crash recovery converges through this path. *)
let install_app t app =
  match find_installed t app.Rule.name with
  | Some existing when same_rule_file existing app -> Unchanged
  | Some _ ->
    journal t (Event.Uninstall app.Rule.name);
    let r = propose t app in
    decide t Install_flow.Keep;
    Updated r
  | None ->
    let r = propose t app in
    decide t Install_flow.Keep;
    Installed r

let uninstall t name =
  match find_installed t name with
  | None -> false
  | Some _ ->
    journal t (Event.Uninstall name);
    true

type delivery = Accepted of Ingest.outcome | Malformed of string

(** An unsequenced configuration URI (trusted, in-order transport). *)
let record_uri t uri =
  match Config_uri.decode uri with
  | _ ->
    journal t (Event.Config { seq = None; uri });
    Accepted (Ingest.Applied 1)
  | exception Config_uri.Malformed m -> Malformed m

(** A sequenced delivery from the lossy transport: validated, then run
    through the dedup / reorder window. Each message applied journals a
    [Config] event carrying its sequence number. *)
let deliver t ~seq uri =
  if seq < 1 then Malformed "sequence numbers start at 1"
  else
    match Config_uri.decode uri with
    | _ -> Accepted (Ingest.receive (ingest t) ~seq uri)
    | exception Config_uri.Malformed m -> Malformed m

let set_decision t threat_id decision =
  journal t (Event.Decision { threat_id; decision })

(* -- poison-app quarantine (journaled) --------------------------------------- *)

let quarantine t ~app ~reason =
  if not (Install_flow.is_quarantined t.flow app) then
    journal t (Event.Quarantine { app; reason })

let unquarantine t app =
  Install_flow.is_quarantined t.flow app
  && begin
       journal t (Event.Unquarantine app);
       true
     end

let quarantined t = Install_flow.quarantined t.flow
let is_quarantined t app = Install_flow.is_quarantined t.flow app

(* -- recovery ---------------------------------------------------------------- *)

let replay t records =
  List.iter
    (fun payload ->
      match Event.of_string payload with
      | ev -> apply_event t ev
      | exception Event.Decode_error _ -> t.skipped <- t.skipped + 1)
    records

(* app names introduced by Install events from record index [idx] on *)
let installs_from records idx =
  List.filteri (fun i _ -> i >= idx) records
  |> List.filter_map (fun p ->
         match Event.of_string p with
         | Event.Install app -> Some app.Rule.name
         | _ -> None
         | exception Event.Decode_error _ -> None)

(* How many sequenced deliveries past a gap the ingest buffers. *)
let window = 64

let open_ ?(fsync = true) ?(mode = Mixed) ?(configure = Fun.id)
    ?(replicas = []) ?epoch ~dir () =
  let surface = Surface.at ~fsync Surface.Home (dir :: replicas) in
  let { Surface.snapshot = rs; journal = rj; floor } = Surface.recover surface in
  (* the effective ownership epoch: a fenced open must exceed both the
     on-disk floor (frames survive restarts) and any earlier in-process
     grant; an unfenced open adopts the floor, so a later fenced owner
     still outranks it *)
  let eff =
    match epoch with None -> floor | Some e -> if e > floor then e else floor + 1
  in
  ignore (Fence.acquire dir eff);
  let recorder = Recorder.create () in
  let dconfig = configure (detector_config mode recorder) in
  let flow = Install_flow.create ~detector_config:dconfig () in
  let t =
    {
      surface;
      recorder;
      flow;
      dconfig;
      index = Option.map (fun _ -> Detector.create_pair_index ()) dconfig.Detector.shared_cache;
      configs = [];
      ingest = None;
      skipped = 0;
    }
  in
  t.ingest <-
    Some
      (Ingest.create ~window (fun ~seq uri ->
           (* not [journal]: this runs inside [Ingest.receive], which
              owns the watermark that [apply_event] would raise *)
           log_event t (Event.Config { seq = Some seq; uri });
           apply_config t ~seq:(Some seq) uri));
  replay t rs.Rjournal.recovered;
  replay t rj.Rjournal.recovered;
  Surface.open_writer ~fence_key:dir surface ~epoch:eff;
  (* a fenced handover is journaled: the grant survives even a journal
     whose only other frames predate the new epoch *)
  if epoch <> None && eff > floor then log_event t (Event.Epoch eff);
  let changed =
    (* a damaged replica whose records all survived on a sibling loses
       nothing — only when every replica surfaced damage can the merged
       stream itself be incomplete, so only then is anything suspect
       (for a single replica this is exactly the old "any damage" rule) *)
    let suspect (r : Rjournal.recovery) =
      if r.Rjournal.all_replicas_damaged then r.Rjournal.damage_index else None
    in
    match (suspect rs, suspect rj) with
    | Some _, _ ->
      (* the snapshot itself was damaged: everything is suspect *)
      List.map (fun (a : Rule.smartapp) -> a.Rule.name) (installed_apps t)
    | None, Some idx -> installs_from rj.Rjournal.recovered idx
    | None, None -> []
  in
  let changed =
    List.sort_uniq compare (List.filter (fun n -> find_installed t n <> None) changed)
  in
  let repaired =
    List.length
      (List.filter
         (fun (r : Rjournal.replica_report) -> r.Rjournal.repaired)
         (rs.Rjournal.replicas @ rj.Rjournal.replicas))
  in
  ( t,
    {
      snapshot_records = List.length rs.Rjournal.recovered;
      journal_records = List.length rj.Rjournal.recovered;
      skipped_events = t.skipped;
      torn_bytes = rs.Rjournal.torn_bytes + rj.Rjournal.torn_bytes;
      quarantined = rs.Rjournal.quarantined + rj.Rjournal.quarantined;
      changed_apps = changed;
      repaired_replicas = repaired;
      healed_records = rs.Rjournal.healed + rj.Rjournal.healed;
      all_replicas_damaged =
        rs.Rjournal.all_replicas_damaged || rj.Rjournal.all_replicas_damaged;
      epoch = eff;
    } )

let close t = Surface.close t.surface
let surface t = t.surface
let dir t = List.hd (Surface.dirs t.surface)
let epoch t = Surface.epoch t.surface

(* -- compaction -------------------------------------------------------------- *)

(** Fold the whole history into a minimal snapshot — current configs
    (in arrival order, before the installs that may depend on them),
    currently installed apps (install order), explicit decisions, and
    the ingestion watermark — then truncate the journal. Both file
    replacements are atomic renames; a crash between them leaves a
    journal whose events replay idempotently over the new snapshot. *)
let compact (t : t) =
  let epoch = epoch t in
  let events =
    (if epoch > 0 then [ Event.Epoch epoch ] else [])
    @ List.map (fun (_, (seq, uri)) -> Event.Config { seq; uri }) t.configs
    @ List.map (fun a -> Event.Install a) (installed_apps t)
    @ List.map
        (fun (threat_id, decision) -> Event.Decision { threat_id; decision })
        (Policy.decisions (Install_flow.policies t.flow))
    @ List.map
        (fun (app, reason) -> Event.Quarantine { app; reason })
        (Install_flow.quarantined t.flow)
    @ [ Event.Watermark (Ingest.ack (ingest t)) ]
  in
  Surface.compact t.surface (List.map Event.to_string events)

(* -- canonical durable state -------------------------------------------------- *)

(* The durable tail shared by [state_text] and [audit_text]: kept
   threats, decisions, configs, quarantine and the ingestion watermark. *)
let add_durable_tail b t =
  Buffer.add_string b "kept:";
  List.iter
    (fun th -> Buffer.add_string b (" " ^ Policy.threat_id th))
    (Install_flow.kept_threats t.flow);
  Buffer.add_char b '\n';
  Buffer.add_string b "decisions:";
  List.iter
    (fun (id, d) -> Buffer.add_string b (Printf.sprintf " [%s -> %s]" id (Policy.describe d)))
    (Policy.decisions (Install_flow.policies t.flow));
  Buffer.add_char b '\n';
  Buffer.add_string b "configs:";
  List.iter
    (fun (app, (seq, uri)) ->
      Buffer.add_string b
        (Printf.sprintf " [%s#%s %s]" app
           (match seq with Some s -> string_of_int s | None -> "-")
           uri))
    t.configs;
  Buffer.add_char b '\n';
  Buffer.add_string b "quarantined:";
  List.iter
    (fun (app, reason) -> Buffer.add_string b (Printf.sprintf " [%s: %s]" app reason))
    (Install_flow.quarantined t.flow);
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "ack: %d\n" (last_seq t))

(** Canonical rendering of every piece of durable state — the full rule
    files of the installed apps (the {!Rule_db} contents), the kept
    threats and explicit decisions (the {!Install_flow} state feeding
    the mediator), configs, quarantine and the ingestion watermark —
    without running any audit. Two recoveries of the same journal must
    produce byte-identical [state_text]; that is the fleet's
    replay-determinism invariant, checkable in microseconds per home
    where {!audit_text} costs a full detection pass. *)
let state_text t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "apps:\n";
  List.iter
    (fun (a : Rule.smartapp) ->
      Buffer.add_string b (" " ^ Rule_json.to_string a ^ "\n"))
    (installed_apps t);
  add_durable_tail b t;
  Buffer.contents b

let state_digest t = Digest.to_hex (Digest.string (state_text t))

(* -- re-audit ---------------------------------------------------------------- *)

(* Quarantined apps stay installed but are excluded from batch audits:
   a poison app must not be able to crash every later re-audit. *)
let auditable_apps t =
  List.filter
    (fun (a : Rule.smartapp) -> not (Install_flow.is_quarantined t.flow a.Rule.name))
    (installed_apps t)

let audit ?(jobs = 1) ?cancel t =
  let ctx = Detector.create t.dconfig in
  Detector.audit_all ~jobs ?cancel ?index:t.index ctx (auditable_apps t)

(** Canonical rendering of a full re-audit plus the durable state that
    feeds the mediator. Recovery's acceptance invariant is that this is
    byte-identical before a crash and after replaying the journal. *)
let audit_text t =
  let b = Buffer.create 512 in
  let result = audit t in
  Buffer.add_string b "installed:";
  List.iter
    (fun (a : Rule.smartapp) -> Buffer.add_string b (" " ^ a.Rule.name))
    (installed_apps t);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "threats: %d (undecided %d, failed %d)\n"
       (List.length result.Detector.threats)
       result.Detector.undecided
       (List.length result.Detector.failures));
  Buffer.add_string b (Threat_interpreter.describe_all result.Detector.threats);
  Buffer.add_char b '\n';
  add_durable_tail b t;
  Buffer.contents b

(** Incremental re-audit of the apps a recovery marked as changed: each
    is audited against the rest of the recovered home through the
    install-time ({!Detector.audit_new_app}) machinery. *)
let reaudit_changed ?(jobs = 1) t (report : recovery_report) =
  List.filter_map
    (fun name ->
      match find_installed t name with
      | None -> None
      | Some _ when Install_flow.is_quarantined t.flow name -> None
      | Some app ->
        let ctx = Detector.create t.dconfig in
        Some (name, Detector.audit_new_app ~jobs ctx (auditable_apps t) app))
    report.changed_apps
