(** The [homeguard] command-line tool.

    Subcommands:
    - [extract FILE]: symbolically execute a SmartApp source file and
      print its rules (optionally as the JSON rule file).
    - [detect FILE...]: extract several apps and report pairwise CAI
      threats (offline device-type matching).
    - [audit]: run the corpus-wide audit and print Fig 8 statistics.
    - [instrument FILE]: print the instrumented source (Listing 3).
    - [simulate SCENARIO]: replay a §VIII-A exploitation scenario,
      optionally under runtime mediation ([--enforce]).
    - [handle FILE...]: report threats with their recommended handling
      decisions (§VII).
    - [corpus]: list the bundled corpus.
    - [serve --state-dir DIR]: run a durable home on a write-ahead
      journal, driven by a line protocol on stdin.
    - [recover --state-dir DIR]: recover a (possibly damaged) journal,
      report what was lost, and re-audit the apps touched by damage.
    - [compact --state-dir DIR]: fold the journal into a snapshot. *)

module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Rule_interpreter = Homeguard_frontend.Rule_interpreter
module Threat_interpreter = Homeguard_frontend.Threat_interpreter
module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_app path =
  let src = read_file path in
  let name = Filename.remove_extension (Filename.basename path) in
  Extract.extract_source ~name src

(* Shared --jobs option: how many domains the detection engine fans
   candidate pairs out across. 0 selects the hardware parallelism. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of detection domains. 1 (the default) detects \
           sequentially; 0 uses every core. The threat output is \
           identical for any value.")

let resolve_jobs n = if n <= 0 then Homeguard_detector.Schedule.default_jobs () else n

(* Shared --solver-budget option, in search nodes per solve. -1 keeps
   the default budgets, 0 disables budgeting entirely. *)
let budget_arg =
  Arg.(
    value & opt int (-1)
    & info [ "solver-budget" ] ~docv:"NODES"
        ~doc:
          "Per-solve search-node budget. A solve that exhausts it is \
           retried once with an 8x budget and then reported as \
           $(i,undecided) rather than decided. -1 (the default) uses \
           the built-in budgets; 0 removes all budgets.")

let resolve_budget n =
  let module Budget = Homeguard_solver.Budget in
  if n < 0 then Budget.default_spec
  else if n = 0 then Budget.unlimited_spec
  else Budget.spec_of_nodes n

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit with status 3 if any rule pair was undecided (solver \
           budget exhausted) or failed (detection crashed), instead of \
           completing best-effort.")

let config_with_budget budget =
  { Detector.offline_config with Detector.budget = resolve_budget budget }

let print_audit_health (result : Detector.audit_result) =
  if result.Detector.undecided > 0 then
    Printf.printf "undecided threats (budget exhausted): %d\n" result.Detector.undecided;
  if result.Detector.failures <> [] then begin
    Printf.printf "failed pairs (detection crashed): %d\n"
      (List.length result.Detector.failures);
    List.iter
      (fun (f : Detector.failure) ->
        Printf.printf "  %s: %s\n" f.Detector.pair f.Detector.exn)
      result.Detector.failures
  end

let strict_violation strict (result : Detector.audit_result) =
  strict && (result.Detector.undecided > 0 || result.Detector.failures <> [])

(* -- extract ---------------------------------------------------------------- *)

let extract_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SmartApp source file")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the JSON rule file instead of prose")
  in
  let run file json =
    match load_app file with
    | { Extract.app; diags } ->
      if json then print_endline (Homeguard_rules.Rule_json.to_string app)
      else begin
        Printf.printf "%s: %d rule(s)\n" app.Rule.name (List.length app.Rule.rules);
        print_endline (Rule_interpreter.describe_app app);
        if diags.Extract.unknown_calls <> [] then
          Printf.printf "note: unmodeled APIs encountered: %s\n"
            (String.concat ", " diags.Extract.unknown_calls);
        if diags.Extract.truncated then
          print_endline "warning: path budget exhausted, extraction may be partial"
      end;
      0
    | exception Extract.Extraction_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "extract" ~doc:"Extract automation rules from a SmartApp via symbolic execution")
    Term.(const run $ file $ json)

(* -- detect ----------------------------------------------------------------- *)

let detect_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE..." ~doc:"SmartApp source files")
  in
  let run files jobs budget strict =
    match List.map (fun f -> (load_app f).Extract.app) files with
    | apps ->
      let ctx = Detector.create (config_with_budget budget) in
      let result = Detector.audit_all ~jobs:(resolve_jobs jobs) ctx apps in
      print_endline (Threat_interpreter.describe_all result.Detector.threats);
      print_audit_health result;
      if strict_violation strict result then 3
      else if result.Detector.threats = [] then 0
      else 2
    | exception Extract.Extraction_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Detect cross-app interference threats among SmartApps")
    Term.(const run $ files $ jobs_arg $ budget_arg $ strict_arg)

(* -- audit ------------------------------------------------------------------ *)

let audit_cmd =
  let run jobs budget strict =
    let open Homeguard_corpus in
    let apps =
      List.map
        (fun (e : App_entry.t) ->
          (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app)
        Corpus.audit_apps
    in
    let jobs = resolve_jobs jobs in
    let ctx = Detector.create (config_with_budget budget) in
    let pairs = Detector.candidate_pairs ctx apps in
    let result = Detector.audit_pairs ~jobs ctx pairs in
    let threats = result.Detector.threats in
    Printf.printf "%s\n" (Corpus.stats ());
    Printf.printf "candidate rule pairs after pre-filters: %d (jobs: %d, solver calls: %d)\n"
      (Array.length pairs) jobs ctx.Detector.solver_calls;
    if ctx.Detector.escalations > 0 then
      Printf.printf "budget escalations: %d\n" ctx.Detector.escalations;
    Printf.printf "threat instances: %d\n" (List.length threats);
    List.iter
      (fun cat ->
        Printf.printf "  %-3s %d\n"
          (Threat.category_to_string cat)
          (List.length
             (List.filter (fun (t : Threat.t) -> t.Threat.category = cat) threats)))
      Threat.all_categories;
    print_audit_health result;
    if strict_violation strict result then 3 else 0
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Audit the bundled corpus pairwise (the paper's §VIII-B run)")
    Term.(const run $ jobs_arg $ budget_arg $ strict_arg)

(* -- instrument -------------------------------------------------------------- *)

let instrument_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SmartApp source file")
  in
  let http =
    Arg.(value & flag & info [ "http" ] ~doc:"Use HTTP/FCM messaging instead of SMS")
  in
  let run file http =
    let src = read_file file in
    let name = Filename.remove_extension (Filename.basename file) in
    let transport = if http then `Http else `Sms in
    print_endline (Homeguard_config.Instrument.instrument_source ~transport ~app_name:name src);
    0
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Insert the configuration-collection code (paper Listing 3) into a SmartApp")
    Term.(const run $ file $ http)

(* -- simulate ----------------------------------------------------------------- *)

let simulate_cmd =
  let module Engine = Homeguard_sim.Engine in
  let module Trace = Homeguard_sim.Trace in
  let module Device = Homeguard_st.Device in
  let scenario =
    Arg.(
      required
      & pos 0 (some (enum [ ("race", `Race); ("covert", `Covert); ("disable", `Disable) ])) None
      & info [] ~docv:"SCENARIO" ~doc:"One of: race, covert, disable (the paper's §VIII-A runs)")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Jitter seed") in
  let enforce =
    Arg.(
      value & flag
      & info [ "enforce" ]
          ~doc:
            "Replay under runtime mediation: detect the scenario's \
             threats, compile a reference monitor with the default \
             handling decisions, and enforce it before every command. \
             Exits 4 if any threat witness survives mediation.")
  in
  let corpus_app name =
    let open Homeguard_corpus in
    let e = Option.get (Corpus.find name) in
    (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app
  in
  let run scenario seed enforce =
    let tv = Device.make ~label:"TV" ~device_type:"tv" [ "switch" ] in
    let window = Device.make ~label:"Window" ~device_type:"window" [ "switch" ] in
    let tsensor = Device.make ~label:"Thermo" ~device_type:"temp" [ "temperatureMeasurement" ] in
    let weather = Device.make ~label:"Weather" ~device_type:"weather" [ "weatherSensor" ] in
    let voice = Device.make ~label:"Voice" ~device_type:"speaker" [ "musicPlayer" ] in
    let lamp = Device.make ~label:"Floor lamp" ~device_type:"light" [ "switch" ] in
    let motion = Device.make ~label:"Motion" ~device_type:"motion" [ "motionSensor" ] in
    let siren = Device.make ~label:"Alarm" ~device_type:"alarm" [ "alarm" ] in
    let scenario_apps =
      match scenario with
      | `Race -> [ "ComfortTV"; "ColdDefender" ]
      | `Covert -> [ "ComfortTV"; "CatchLiveShow" ]
      | `Disable -> [ "BurglarFinder"; "NightCare" ]
    in
    let mediator =
      if not enforce then None
      else begin
        let apps = List.map corpus_app scenario_apps in
        let ctx = Detector.create Detector.offline_config in
        let result = Detector.audit_all ~jobs:1 ctx apps in
        Some (Mediator.create (Policy.create ()) result.Detector.threats)
      end
    in
    let t = Engine.create ~seed ?mediator () in
    let comfort () =
      Engine.install t (corpus_app "ComfortTV")
        [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device tsensor);
          ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ]
    in
    (match scenario with
    | `Race ->
      comfort ();
      Engine.install t (corpus_app "ColdDefender")
        [ ("tv2", Engine.B_device tv); ("wSensor", Engine.B_device weather);
          ("window2", Engine.B_device window) ];
      Engine.stimulate t tsensor.Device.id "temperature" "31";
      Engine.stimulate t weather.Device.id "weather" "rainy";
      Engine.stimulate t tv.Device.id "switch" "on";
      Engine.run t ~until_ms:10_000
    | `Covert ->
      comfort ();
      Engine.install t (corpus_app "CatchLiveShow")
        [ ("voicePlayer", Engine.B_device voice); ("tv3", Engine.B_device tv) ];
      Engine.stimulate t tsensor.Device.id "temperature" "31";
      Engine.stimulate t voice.Device.id "status" "playing";
      Engine.run t ~until_ms:10_000
    | `Disable ->
      Engine.install t (corpus_app "BurglarFinder")
        [ ("motion1", Engine.B_device motion); ("floorLamp", Engine.B_device lamp);
          ("alarm1", Engine.B_device siren) ];
      Engine.install t (corpus_app "NightCare") [ ("lamp5", Engine.B_device lamp) ];
      Engine.set_mode t "Night";
      Engine.run t ~until_ms:1_000;
      Engine.stimulate t lamp.Device.id "switch" "on";
      Engine.run t ~until_ms:400_000;
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:500_000);
    let trace = Engine.trace t in
    print_endline (Trace.to_string trace);
    match mediator with
    | None -> 0
    | Some m ->
      print_newline ();
      print_endline "enforcement log:";
      let log = Mediator.log_to_string m in
      print_endline (if log = "" then "  (empty)" else log);
      (* the witness each scenario exists to exhibit, re-checked under
         mediation *)
      let surviving =
        match scenario with
        | `Race ->
          if
            Trace.flap_count trace "Window" "switch" > 0
            || Trace.opposite_commands_within trace "Window" ~window_ms:10_000
                 ~opposites:[ ("on", "off") ]
          then 1
          else 0
        | `Covert -> if Trace.final_attribute trace "Window" "switch" = Some "on" then 1 else 0
        | `Disable ->
          if
            Trace.final_attribute trace "Floor lamp" "switch" <> Some "on"
            || Trace.final_attribute trace "Alarm" "alarm" = None
          then 1
          else 0
      in
      Printf.printf "surviving threat witnesses: %d\n" surviving;
      if surviving = 0 then 0 else 4
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Replay one of the paper's exploitation scenarios in the home simulator, \
          optionally under runtime mediation (--enforce)")
    Term.(const run $ scenario $ seed $ enforce)

(* -- handle ------------------------------------------------------------------- *)

let handle_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE..." ~doc:"SmartApp source files")
  in
  let run files jobs budget strict =
    match List.map (fun f -> (load_app f).Extract.app) files with
    | apps ->
      let ctx = Detector.create (config_with_budget budget) in
      let result = Detector.audit_all ~jobs:(resolve_jobs jobs) ctx apps in
      let threats = result.Detector.threats in
      let store = Policy.create () in
      if threats = [] then print_endline "no threats; nothing to handle"
      else begin
        Printf.printf "%d threat(s); recommended handling decisions:\n" (List.length threats);
        List.iter
          (fun (th : Threat.t) ->
            Printf.printf "%s\n    %s\n    -> %s\n" (Policy.threat_id th) th.Threat.detail
              (Policy.describe (Policy.decision_for store th)))
          threats
      end;
      print_audit_health result;
      if strict_violation strict result then 3 else 0
    | exception Extract.Extraction_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "handle"
       ~doc:
         "Report detected threats with their recommended handling decisions (paper §VII); \
          the same defaults are enforced by simulate --enforce")
    Term.(const run $ files $ jobs_arg $ budget_arg $ strict_arg)

(* -- corpus ------------------------------------------------------------------ *)

let corpus_cmd =
  let run () =
    let open Homeguard_corpus in
    Printf.printf "%-34s %-28s %s\n" "name" "category" "rules (ground truth)";
    List.iter
      (fun (e : App_entry.t) ->
        Printf.printf "%-34s %-28s %s\n" e.App_entry.name
          (App_entry.category_to_string e.App_entry.category)
          (if e.App_entry.ground_truth_rules < 0 then "web service"
           else string_of_int e.App_entry.ground_truth_rules))
      Corpus.all;
    0
  in
  Cmd.v (Cmd.info "corpus" ~doc:"List the bundled SmartApp corpus") Term.(const run $ const ())

(* -- durable home state (serve / recover / compact) --------------------------- *)

module Home = Homeguard_store.Home
module Surface = Homeguard_store.Surface
module Ingest = Homeguard_store.Ingest
module Broker = Homeguard_serve.Broker
module Serve_shed = Homeguard_serve.Shed
module Fault = Homeguard_solver.Fault
module Vcache = Homeguard_vcache.Vcache

let state_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:"Directory holding the home's journal and snapshot (created if missing).")

let no_fsync_arg =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:"Skip fsync after journal appends (faster, loses the crash-durability guarantee).")

let replica_root_arg =
  Arg.(
    value & opt_all string []
    & info [ "replica-root" ] ~docv:"DIR"
        ~doc:
          "Additional replica directory for this home's journals (repeatable). \
           Every journaled change is appended to all replicas in order; recovery \
           merges every record that survived on at least one replica and rewrites \
           damaged, stale or missing copies (read-repair).")

let online_arg =
  Arg.(
    value & flag
    & info [ "online" ]
        ~doc:
          "Match devices by exact recorded identity only (deployment-accurate online \
           mode). The default mixes offline device-type matching with recorded \
           configuration constraints.")

let home_mode online = if online then Home.Online else Home.Mixed

let print_recovery (r : Home.recovery_report) =
  Printf.printf "recovered: %d snapshot + %d journal record(s)\n" r.Home.snapshot_records
    r.Home.journal_records;
  if r.Home.torn_bytes > 0 then
    Printf.printf "torn tail truncated: %d byte(s)\n" r.Home.torn_bytes;
  if r.Home.quarantined > 0 then
    Printf.printf "corrupt records quarantined: %d\n" r.Home.quarantined;
  if r.Home.skipped_events > 0 then
    Printf.printf "undecodable events skipped: %d\n" r.Home.skipped_events;
  if r.Home.changed_apps <> [] then
    Printf.printf "apps touched by damage: %s\n" (String.concat ", " r.Home.changed_apps);
  if r.Home.repaired_replicas > 0 || r.Home.healed_records > 0 then
    Printf.printf "replicas repaired: %d (%d record(s) healed)\n"
      r.Home.repaired_replicas r.Home.healed_records;
  if r.Home.all_replicas_damaged then
    print_endline "every replica was damaged: acknowledged records may be lost";
  if r.Home.epoch > 0 then Printf.printf "ownership epoch: %d\n" r.Home.epoch

let print_delivery = function
  | Home.Accepted (Ingest.Applied n) -> Printf.printf "applied %d message(s)\n" n
  | Home.Accepted Ingest.Duplicate -> print_endline "duplicate (dropped)"
  | Home.Accepted Ingest.Buffered -> print_endline "buffered (out of order)"
  | Home.Accepted Ingest.Overflow -> print_endline "rejected: reorder window overflow"
  | Home.Malformed m -> Printf.printf "rejected: %s\n" m

(** Line protocol for [serve]: one command per line on stdin. *)
let serve_help =
  {|commands:
  install FILE      extract FILE, audit under the request deadline, leave the
                    proposal pending; replies: ok | busy retry-after-ms=N |
                    degraded (deadline cut the audit short) | quarantined
  keep              accept the pending proposal (journaled)
  reject            discard the pending proposal
  config URI        record a configuration URI (journaled)
  deliver SEQ URI   sequenced delivery (dedup + reordering, journaled)
  uninstall NAME    remove an installed app (journaled)
  decision ID D     override handling for threat ID; D one of
                    allow | confirm | block RULE | prioritize RULE | break N
  status            installed apps, watermark, journal size, queue occupancy
  audit             enqueue a background full re-audit (queued job=N | busy)
  audit now         synchronous full re-audit (the recovery invariant text)
  drain             run or shed every queued re-audit, in order
  quarantine        list quarantined apps
  quarantine clear NAME  lift a quarantine (journaled)
  inject stall MS [RATE] [ONLY]  arm solver latency injection (test hook)
  inject crash RATE [ONLY]       arm solver crash injection (test hook)
  inject off        disarm fault injection
  compact           fold the journal into a snapshot
  help              this text
  quit              close the journal and exit|}

let parse_decision = function
  | [ "allow" ] -> Some Policy.Allow
  | [ "confirm" ] -> Some Policy.Confirm
  | [ "block"; rule ] -> Some (Policy.Block { rule })
  | [ "prioritize"; winner ] -> Some (Policy.Prioritize { winner })
  | [ "break"; n ] -> (
    match int_of_string_opt n with
    | Some hop_budget -> Some (Policy.Break_chain { hop_budget })
    | None -> None)
  | _ -> None

let print_install_reply = function
  | Broker.Proposed { report; degraded; elapsed_ms } ->
    let threats = report.Homeguard_frontend.Install_flow.threats in
    let audit = report.Homeguard_frontend.Install_flow.audit in
    Printf.printf "%s%s: %d threat(s) elapsed-ms=%.0f\n"
      (if degraded then "degraded reason=deadline-expired " else "ok ")
      report.Homeguard_frontend.Install_flow.app.Rule.name (List.length threats)
      elapsed_ms;
    print_audit_health audit;
    if degraded || audit.Detector.failures <> [] then
      print_endline "incomplete audit: threats shown are a lower bound, not a clean bill";
    if threats <> [] then begin
      print_endline (Homeguard_frontend.Install_flow.threats_text report);
      print_endline (Homeguard_frontend.Install_flow.handling_text report)
    end;
    Option.iter
      (fun note -> Printf.printf "note: %s\n" note)
      report.Homeguard_frontend.Install_flow.quarantine_note;
    print_endline "pending: keep | reject"
  | Broker.Busy { retry_after_ms } -> Printf.printf "busy retry-after-ms=%d\n" retry_after_ms
  | Broker.Quarantined_app { app; reason } ->
    Printf.printf "quarantined %s: %s — reject recommended (or: quarantine clear %s)\n" app
      reason app
  | Broker.Install_failed { app; error; quarantined } ->
    Printf.printf "error: %s\n" error;
    if quarantined then Printf.printf "quarantined %s after repeated failures\n" app

let print_audit_outcome = function
  | Broker.Audited { id; result; degraded; elapsed_ms; _ } ->
    Printf.printf "audited job=%d threats=%d shed=%d %s elapsed-ms=%.0f\n" id
      (List.length result.Detector.threats)
      result.Detector.shed
      (if degraded then "degraded" else "complete")
      elapsed_ms;
    print_audit_health result
  | Broker.Shed_job { id; reason; _ } ->
    Printf.printf "shed job=%d reason=%s\n" id (Serve_shed.describe_reason reason)

let parse_inject words =
  let rate_of s = int_of_string_opt s in
  match words with
  | [ "off" ] ->
    Fault.disarm ();
    Some "fault injection disarmed"
  | "stall" :: ms :: rest -> (
    match (float_of_string_opt ms, rest) with
    | Some ms, _ when not (Float.is_finite ms) -> None (* [inf] would never wake *)
    | Some ms, [] ->
      Fault.arm ~rate_per_thousand:1000 (Fault.Stall ms);
      Some (Printf.sprintf "armed: stall %.0f ms on every solve" ms)
    | Some ms, [ rate ] -> (
      match rate_of rate with
      | Some r ->
        Fault.arm ~rate_per_thousand:r (Fault.Stall ms);
        Some (Printf.sprintf "armed: stall %.0f ms at %d/1000" ms r)
      | None -> None)
    | Some ms, [ rate; only ] -> (
      match rate_of rate with
      | Some r ->
        Fault.arm ~only ~rate_per_thousand:r (Fault.Stall ms);
        Some (Printf.sprintf "armed: stall %.0f ms at %d/1000 only=%s" ms r only)
      | None -> None)
    | _ -> None)
  | "crash" :: rate :: rest -> (
    match (rate_of rate, rest) with
    | Some r, [] ->
      Fault.arm ~rate_per_thousand:r Fault.Raise;
      Some (Printf.sprintf "armed: crash at %d/1000" r)
    | Some r, [ only ] ->
      Fault.arm ~only ~rate_per_thousand:r Fault.Raise;
      Some (Printf.sprintf "armed: crash at %d/1000 only=%s" r only)
    | _ -> None)
  | _ -> None

(* The interactive serve loop fronts exactly one home, registered in
   the broker under this id. *)
let serve_home_id = "home"

let serve_line broker line =
  let home = Broker.home broker serve_home_id in
  let words = String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") in
  match words with
  | [] -> ()
  | [ "install"; file ] -> (
    match read_file file with
    | source ->
      let name = Filename.remove_extension (Filename.basename file) in
      print_install_reply (Broker.install broker ~home:serve_home_id ~name ~source ())
    | exception Sys_error msg -> Printf.printf "error: %s\n" msg)
  | [ "keep" ] -> (
    match Home.decide home Homeguard_frontend.Install_flow.Keep with
    | () -> print_endline "kept"
    | exception Home.No_pending_install -> print_endline "error: nothing pending")
  | [ "reject" ] -> (
    match Home.decide home Homeguard_frontend.Install_flow.Reject with
    | () -> print_endline "rejected"
    | exception Home.No_pending_install -> print_endline "error: nothing pending")
  | [ "config"; uri ] -> print_delivery (Home.record_uri home uri)
  | [ "deliver"; seq; uri ] -> (
    match int_of_string_opt seq with
    | Some seq -> print_delivery (Home.deliver home ~seq uri)
    | None -> print_endline "error: SEQ must be an integer")
  | [ "uninstall"; name ] ->
    print_endline (if Home.uninstall home name then "uninstalled" else "error: not installed")
  | "decision" :: id :: rest -> (
    match parse_decision rest with
    | Some d ->
      Home.set_decision home id d;
      print_endline "recorded"
    | None -> print_endline "error: bad decision (see help)")
  | [ "status" ] ->
    Printf.printf "installed:%s\n"
      (String.concat ""
         (List.map (fun (a : Rule.smartapp) -> " " ^ a.Rule.name) (Home.installed_apps home)));
    let snapshot, journal = Surface.sizes (Home.surface home) in
    Printf.printf "ack: %d\njournal: %d byte(s), snapshot: %d byte(s)\n" (Home.last_seq home)
      journal snapshot;
    print_endline (Broker.status broker)
  | [ "audit" ] -> (
    match Broker.submit_audit broker ~home:serve_home_id () with
    | Ok id -> Printf.printf "queued job=%d\n" id
    | Error retry_after_ms -> Printf.printf "busy retry-after-ms=%d\n" retry_after_ms)
  | [ "audit"; "now" ] -> print_string (Home.audit_text home)
  | [ "drain" ] -> (
    match Broker.drain broker with
    | [] -> print_endline "nothing queued"
    | outcomes -> List.iter print_audit_outcome outcomes)
  | [ "quarantine" ] -> (
    match Broker.quarantined broker ~home:serve_home_id with
    | [] -> print_endline "quarantined: none"
    | qs -> List.iter (fun (app, reason) -> Printf.printf "quarantined %s: %s\n" app reason) qs)
  | [ "quarantine"; "clear"; name ] ->
    print_endline
      (if Broker.clear_quarantine broker ~home:serve_home_id name then "cleared"
       else "error: not quarantined")
  | "inject" :: rest -> (
    match parse_inject rest with
    | Some msg -> print_endline msg
    | None -> print_endline "error: bad inject (see help)")
  | [ "compact" ] ->
    Home.compact home;
    Printf.printf "compacted; snapshot: %d byte(s)\n" (fst (Surface.sizes (Home.surface home)))
  | [ "help" ] -> print_endline serve_help
  | _ -> print_endline "error: unknown command (try: help)"

let max_queue_arg =
  Arg.(
    value & opt int 4
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Bound on admitted work (running + queued) for this home. A request \
           arriving with the queue full gets an immediate $(i,busy \
           retry-after-ms=N) reply instead of unbounded queueing.")

let deadline_ms_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline in milliseconds (0 = unbounded). The \
           remaining allowance is propagated down to the solver as its \
           wall-clock budget; an audit cut short replies $(i,degraded) and \
           never claims a clean bill.")

let quarantine_after_arg =
  Arg.(
    value & opt int 3
    & info [ "quarantine-after" ] ~docv:"K"
        ~doc:
          "Quarantine an app after K consecutive extraction/audit failures \
           (journaled; survives restarts). Quarantined apps are excluded from \
           batch audits until cleared.")

let cache_dir_arg =
  Arg.(
    value & opt string ""
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Attach a persistent shared verdict cache rooted at DIR (append-only \
           CRC-framed journal; warm across restarts). Omit to run uncached.")

let serve_cmd =
  let run dir replica_roots no_fsync online max_queue deadline_ms quarantine_after
      jobs cache_dir =
    let vcache =
      if cache_dir = "" then None
      else
        let st = Vcache.open_store ~fsync:(not no_fsync) ~dir:cache_dir () in
        Some (st, Vcache.attach st ~owner:"serve")
    in
    let configure =
      match vcache with None -> Fun.id | Some (_, h) -> Vcache.configure h
    in
    let home, report =
      Home.open_ ~fsync:(not no_fsync) ~mode:(home_mode online) ~configure
        ~replicas:replica_roots ~dir ()
    in
    print_recovery report;
    let config =
      {
        Broker.default_config with
        Broker.max_queue;
        Broker.deadline_ms = (if deadline_ms > 0.0 then Some deadline_ms else None);
        Broker.quarantine_after;
        Broker.jobs = resolve_jobs jobs;
      }
    in
    let broker = Broker.create ~config () in
    Broker.add_home broker ~id:serve_home_id home;
    (match Broker.quarantined broker ~home:serve_home_id with
    | [] -> ()
    | qs ->
      Printf.printf "quarantined (recovered): %s\n" (String.concat ", " (List.map fst qs)));
    print_endline "ready (try: help)";
    (try
       while true do
         let line = input_line stdin in
         if String.trim line = "quit" then raise Exit else serve_line broker line
       done
     with Exit | End_of_file -> ());
    Fault.disarm ();
    Home.close home;
    (match vcache with
    | None -> ()
    | Some (st, h) ->
      Printf.printf "cache: entries=%d %s\n" (Vcache.entries st)
        (Vcache.counters_text (Vcache.counters h));
      Vcache.close_store st);
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a durable home on a write-ahead journal, driven by a line protocol on \
          stdin; every accepted change is journaled and fsynced before it applies. \
          Requests pass admission control (bounded queues, busy replies), carry \
          deadlines down to the solver, and repeatedly-failing apps are quarantined")
    Term.(
      const run $ state_dir_arg $ replica_root_arg
      $ no_fsync_arg $ online_arg $ max_queue_arg $ deadline_ms_arg
      $ quarantine_after_arg $ jobs_arg $ cache_dir_arg)

let recover_cmd =
  let run dir replica_roots online jobs =
    let home, report =
      Home.open_ ~mode:(home_mode online) ~replicas:replica_roots ~dir ()
    in
    print_recovery report;
    Printf.printf "installed apps: %d, watermark: %d\n"
      (List.length (Home.installed_apps home))
      (Home.last_seq home);
    (match Home.quarantined home with
    | [] -> ()
    | qs ->
      List.iter
        (fun (app, reason) ->
          Printf.printf "quarantined %s: %s (excluded from re-audit)\n" app reason)
        qs);
    (match Home.reaudit_changed ~jobs:(resolve_jobs jobs) home report with
    | [] -> print_endline "incremental re-audit: nothing to re-check"
    | reaudits ->
      List.iter
        (fun (name, (result : Detector.audit_result)) ->
          Printf.printf "re-audit %s: %d threat(s)\n" name
            (List.length result.Detector.threats);
          print_audit_health result)
        reaudits);
    Home.close home;
    if
      report.Home.torn_bytes > 0
      || report.Home.quarantined > 0
      || report.Home.repaired_replicas > 0
    then 2
    else 0
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Recover a home's (possibly damaged) journal: truncate torn tails, quarantine \
          corrupt records, replay the rest — merging and read-repairing any replica \
          roots — and incrementally re-audit the apps the damage touched. Exits 2 \
          when damage was found and repaired")
    Term.(const run $ state_dir_arg $ replica_root_arg $ online_arg $ jobs_arg)

let compact_cmd =
  let run dir replica_roots online =
    let home, report =
      Home.open_ ~mode:(home_mode online) ~replicas:replica_roots ~dir ()
    in
    print_recovery report;
    let bytes () =
      let snapshot, journal = Surface.sizes (Home.surface home) in
      snapshot + journal
    in
    let before = bytes () in
    Home.compact home;
    let after = bytes () in
    Printf.printf "compacted: %d -> %d byte(s)\n" before after;
    Home.close home;
    0
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Fold a home's journal into a minimal snapshot (current configs, installed \
          apps, explicit decisions, ingestion watermark) and truncate the journal")
    Term.(const run $ state_dir_arg $ replica_root_arg $ online_arg)

(* -- fleet ------------------------------------------------------------------- *)

module Chaos = Homeguard_fleet.Chaos
module Chaos_repro = Homeguard_fleet.Repro
module Supervisor = Homeguard_fleet.Supervisor
module Fleet_shard = Homeguard_fleet.Shard
module Synth = Homeguard_corpus.Synth
module Corpus_mod = Homeguard_corpus.Corpus
module App_entry = Homeguard_corpus.App_entry
module Install_flow_cli = Homeguard_frontend.Install_flow

module Fleet_scrub = Homeguard_store.Scrub

let no_vcache_arg =
  Arg.(
    value & flag
    & info [ "no-vcache" ]
        ~doc:
          "Disable the fleet-shared verdict cache (and, under chaos, skip the \
           cache invariants).")

let fleet_replicas_arg =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"R"
        ~doc:
          "Replica directories per home (default 2; 1 keeps the unreplicated \
           layout). Replica $(i,k) lives under the distinct replica root \
           $(i,STATE-DIR/rk).")

let fleet_audit_cmd =
  let run dir seed n_homes shards replicas jobs no_vcache =
    let dir =
      if dir <> "" then dir
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "homeguard-fleet-%d" (Unix.getpid ()))
    in
    let synth = Corpus_mod.synth ~seed ~n_homes in
    let config =
      {
        Supervisor.default_config with
        Supervisor.shards;
        fsync = false;
        vcache = not no_vcache;
        replicas =
          (if replicas > 0 then replicas
           else Supervisor.default_config.Supervisor.replicas);
        broker = { Broker.default_config with Broker.jobs = resolve_jobs jobs };
      }
    in
    let sup =
      Supervisor.create ~config ~dir
        ~homes:(List.map (fun h -> h.Synth.id) synth)
        ()
    in
    (* populate: install every synthetic home's apps and deliver its
       configuration stream, accepting whatever the fleet acks *)
    List.iter
      (fun h ->
        let id = h.Synth.id in
        List.iter
          (fun (app : App_entry.t) ->
            ignore
              (Supervisor.run sup ~home:id (fun sh ->
                   let broker = Fleet_shard.broker sh in
                   match
                     Broker.install broker ~home:id ~name:app.App_entry.name
                       ~source:app.App_entry.source ()
                   with
                   | Broker.Proposed _ ->
                     Home.decide (Broker.home broker id) Install_flow_cli.Keep
                   | _ -> ())))
          h.Synth.apps;
        List.iteri
          (fun i uri -> ignore (Supervisor.deliver sup ~home:id ~seq:(i + 1) uri))
          h.Synth.configs)
      synth;
    let audit_pass () =
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun h ->
          match Supervisor.submit_audit sup ~home:h.Synth.id () with
          | Supervisor.Done { value = Ok _; shard } ->
            ignore (Supervisor.drain sup ~shard)
          | _ -> ())
        synth;
      Unix.gettimeofday () -. t0
    in
    let s1 = audit_pass () in
    let s2 = audit_pass () in
    Printf.printf "audit pass 1: %d homes in %.3fs (%.0f homes/s)\n" n_homes s1
      (float_of_int n_homes /. Float.max 1e-9 s1);
    Printf.printf "audit pass 2 (warm): %d homes in %.3fs (%.0f homes/s)\n" n_homes
      s2
      (float_of_int n_homes /. Float.max 1e-9 s2);
    print_string (Supervisor.status sup);
    Supervisor.close sup;
    0
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N" ~doc:"Synthetic-home generator seed.")
  in
  let homes_arg =
    Arg.(
      value & opt int 50
      & info [ "homes" ] ~docv:"N" ~doc:"Synthetic homes to generate and audit.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Shard workers.")
  in
  let dir_arg =
    Arg.(
      value & opt string ""
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Fleet state root (default: a fresh directory under the system \
             temp dir). Re-running against the same root starts with a warm \
             verdict cache.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Generate a synthetic-home fleet, install and configure every home, then \
          audit the whole fleet twice — the second pass exercises the shared \
          verdict cache — and print per-shard status including cache counters")
    Term.(
      const run $ dir_arg $ seed_arg $ homes_arg $ shards_arg $ fleet_replicas_arg
      $ jobs_arg $ no_vcache_arg)

let fleet_chaos_cmd =
  let run dir seed shards homes steps replicas smoke no_vcache replay
      enforce_fence break_fence shrink_on_failure =
    let dir =
      if dir <> "" then dir
      else Filename.concat (Filename.get_temp_dir_name ())
             (Printf.sprintf "homeguard-chaos-%d" (Unix.getpid ()))
    in
    match replay with
    | Some path -> (
      (* replay a checked-in repro; the two regression directions are
         "still reproduces as recorded" (default) and "the fix holds
         under enforcement" (--enforce-fence) *)
      match Chaos_repro.load ~path with
      | exception (Failure msg | Sys_error msg) ->
        Printf.eprintf "error: %s\n" msg;
        1
      | repro ->
        let report =
          Chaos_repro.replay
            (if enforce_fence then { repro with Chaos_repro.fence_enforced = true }
             else repro)
            ~dir
        in
        print_string (Chaos.render report);
        if enforce_fence then begin
          Printf.printf "replay (fence enforced): campaign %s — fix %s\n"
            (if Chaos.passed report then "passed" else "FAILED")
            (if Chaos.passed report then "holds" else "REGRESSED");
          if Chaos.passed report then 0 else 1
        end
        else begin
          let live = Chaos_repro.reproduces report repro in
          Printf.printf "replay (as recorded): invariant %s %s\n"
            repro.Chaos_repro.invariant
            (if live then "still violated — repro reproduces"
             else "NOT violated — repro went stale");
          if live then 0 else 1
        end)
    | None ->
      let base = if smoke then Chaos.smoke_config else Chaos.default_config in
      let config =
        {
          base with
          Chaos.seed;
          Chaos.shards = (if shards > 0 then shards else base.Chaos.shards);
          Chaos.homes = (if homes > 0 then homes else base.Chaos.homes);
          Chaos.steps = (if steps > 0 then steps else base.Chaos.steps);
          Chaos.replicas =
            (if replicas > 0 then replicas else base.Chaos.replicas);
          Chaos.vcache = not no_vcache;
        }
      in
      let report =
        Homeguard_store.Fence.with_enforced (not break_fence) (fun () ->
            Chaos.run ~config ~dir ())
      in
      print_string (Chaos.render report);
      if Chaos.passed report then 0
      else begin
        (* persist the failure as a replayable repro, and optionally
           delta-debug the schedule down to a minimal one *)
        let violated =
          List.filter_map
            (fun i -> if i.Chaos.ok then None else Some i.Chaos.name)
            report.Chaos.invariants
        in
        (match violated with
        | [] -> ()
        | invariant :: _ ->
          let repro =
            {
              Chaos_repro.config;
              schedule = report.Chaos.schedule;
              invariant;
              fence_enforced = not break_fence;
            }
          in
          let path = Filename.concat dir "chaos.failed.repro" in
          Chaos_repro.save repro ~path;
          Printf.printf "failure repro written to %s\n" path;
          if shrink_on_failure then begin
            let minimal, trials =
              Chaos_repro.shrink ~dir:(Filename.concat dir "shrink") repro
            in
            let min_path = Filename.concat dir "chaos.min.repro" in
            Chaos_repro.save minimal ~path:min_path;
            Printf.printf
              "minimized %d event(s) to %d in %d trial campaign(s); repro \
               written to %s\n"
              (List.length repro.Chaos_repro.schedule)
              (List.length minimal.Chaos_repro.schedule)
              trials min_path
          end);
        1
      end
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed; the kill schedule, fault windows and workload are all deterministic in it.")
  in
  let shards_arg =
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc:"Shard workers (default 4).")
  in
  let homes_arg =
    Arg.(value & opt int 0 & info [ "homes" ] ~docv:"N" ~doc:"Synthetic homes (default 24; 10 under --smoke).")
  in
  let steps_arg =
    Arg.(value & opt int 0 & info [ "steps" ] ~docv:"N" ~doc:"Campaign steps (default 400; 150 under --smoke).")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"CI-sized campaign: fewer homes and steps, same invariants.")
  in
  let dir_arg =
    Arg.(value & opt string "" & info [ "state-dir" ] ~docv:"DIR" ~doc:"Fleet state root (default: a fresh directory under the system temp dir).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a checked-in chaos repro instead of deriving a schedule: \
             run its recorded config, fault events and fence setting, and exit \
             0 when the recorded invariant is still violated (the repro \
             reproduces). With $(b,--enforce-fence), exit 0 when the campaign \
             passes instead (the fix holds). A repro that does not parse exits \
             1 with the parser's line-numbered error.")
  in
  let enforce_fence_arg =
    Arg.(
      value & flag
      & info [ "enforce-fence" ]
          ~doc:
            "Under $(b,--replay): override the repro's recorded fence setting \
             and run with epoch fencing enforced — the regression direction \
             that proves the fix still holds.")
  in
  let break_fence_arg =
    Arg.(
      value & flag
      & info [ "break-fence" ]
          ~doc:
            "Deliberately reintroduce the split-brain bug: run the campaign \
             with epoch fencing disabled. The stale-epoch invariants must \
             catch it; combine with $(b,--shrink-on-failure) to minimize the \
             catching schedule.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink-on-failure" ]
          ~doc:
            "When the campaign fails, delta-debug (ddmin) the fault schedule \
             down to a minimal event list that still violates the first \
             failed invariant, and write it to \
             $(i,STATE-DIR)/chaos.min.repro. A non-minimized \
             chaos.failed.repro is written on any failure regardless.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos campaign over a home-sharded fleet: an explicit \
          fault schedule of shard kills, stalls, storage faults, replica and \
          verdict-cache damage and split-brain windows layered over \
          synthetic-home traffic, then verify the fleet invariants (no acked \
          loss, deterministic recovery, quarantine/decision survival, no false \
          clean bill, zero stale-epoch appends, scrub convergence — plus the \
          cache-surface invariants unless --no-vcache). Failures persist a \
          replayable repro; see --replay and --shrink-on-failure. Exits 1 on \
          any violation")
    Term.(
      const run $ dir_arg $ seed_arg $ shards_arg $ homes_arg $ steps_arg
      $ fleet_replicas_arg $ smoke_arg $ no_vcache_arg $ replay_arg
      $ enforce_fence_arg $ break_fence_arg $ shrink_arg)

let fleet_scrub_cmd =
  let run dir replicas strict no_fsync =
    let replicas = if replicas > 0 then replicas else 2 in
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "error: no fleet root at %s\n" dir;
      1
    end
    else begin
      let roots = Fleet_shard.replica_roots ~fleet_dir:dir ~replicas in
      let totals =
        List.fold_left
          (fun acc entry ->
            let dirs = List.map (fun root -> Filename.concat root entry) roots in
            let r = Surface.scrub (Surface.at ~fsync:(not no_fsync) Surface.Home dirs) in
            if not r.Fleet_scrub.healthy then
              Printf.printf
                "%s: repaired=%d recreated=%d quarantined=%d torn=%d healed=%d%s\n"
                entry r.Fleet_scrub.repaired_replicas
                r.Fleet_scrub.recreated_replicas r.Fleet_scrub.frames_quarantined
                r.Fleet_scrub.torn_bytes r.Fleet_scrub.records_healed
                (if r.Fleet_scrub.converged then "" else " UNCONVERGED");
            Fleet_scrub.add acc r)
          Fleet_scrub.zero (Fleet_shard.home_entries ~fleet_dir:dir)
      in
      print_endline (Fleet_scrub.counters_text totals);
      (* the verdict cache is a durable surface under the same contract:
         scrub its replica set too *)
      let cache_unconverged =
        let dirs = Fleet_shard.cache_dirs ~fleet_dir:dir ~replicas in
        let primary = List.hd dirs in
        if not (Sys.file_exists primary && Sys.is_directory primary) then 0
        else begin
          let r =
            Surface.scrub (Surface.at ~fsync:(not no_fsync) Surface.Cache dirs)
          in
          Printf.printf "vcache: %s\n" (Fleet_scrub.report_text r);
          if r.Fleet_scrub.converged then 0 else 1
        end
      in
      if strict && (totals.Fleet_scrub.unconverged > 0 || cache_unconverged > 0)
      then 1
      else 0
    end
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"Fleet state root to scrub.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit 1 when any home is still unconverged after repair.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Anti-entropy pass over an offline fleet root: CRC-scan every replica of \
          every home and of the shared verdict cache, compare record-stream \
          digests, read-repair damaged, stale or missing replicas from the \
          surviving copies at frame granularity, and print per-kind repair \
          counters. Healthy surfaces are untouched, so a second pass reports \
          all-healthy and rewrites nothing")
    Term.(const run $ dir_arg $ fleet_replicas_arg $ strict_arg $ no_fsync_arg)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Home-sharded fleet operations: supervisor with health checks, circuit \
          breakers, journal-backed shard recovery and a fleet-shared verdict cache")
    [ fleet_chaos_cmd; fleet_audit_cmd; fleet_scrub_cmd ]

let main =
  let doc = "detect and handle cross-app interference threats in smart homes" in
  Cmd.group
    (Cmd.info "homeguard" ~version:Homeguard_core.Homeguard.version ~doc)
    [
      extract_cmd;
      detect_cmd;
      audit_cmd;
      instrument_cmd;
      simulate_cmd;
      handle_cmd;
      corpus_cmd;
      serve_cmd;
      recover_cmd;
      compact_cmd;
      fleet_cmd;
    ]

let () = exit (Cmd.eval' main)
