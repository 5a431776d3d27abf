(** The request broker: admission control, deadline propagation, load
    shedding and poison-app quarantine wired over a set of {!Home}s.

    The division of labour: {!Admission} owns the bounds, {!Deadline}
    owns the clock, {!Shed} owns the refusal vocabulary, {!Quarantine}
    owns the per-home K-failure counters, and {!Homeguard_store.Home}
    owns durability. The broker sequences them — admit, derive a budget
    from what remains of the deadline, run, attribute failures, journal
    quarantines — and turns the result into a structured reply the
    serve loop can print.

    A broker fronts any number of homes, each an explicit value added
    with {!add_home}: per-home admission bounds key on the real home
    id, and every reply and queued job carries the home it belongs to.
    This is what makes a fleet shard "just a map of homes" — a shard
    worker is one broker plus the homes the supervisor assigned it.

    Interactive installs run immediately under their deadline;
    background full re-audits are queued ({!submit_audit}) holding an
    admission ticket, and {!drain} runs or sheds them in order. *)

module Rule = Homeguard_rules.Rule
module Intern = Homeguard_rules.Intern
module Budget = Homeguard_solver.Budget
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Extract = Homeguard_symexec.Extract
module Install_flow = Homeguard_frontend.Install_flow
module Home = Homeguard_store.Home
module Fence = Homeguard_store.Fence

type config = {
  max_queue : int;  (** per-home admission bound (queued + running) *)
  deadline_ms : float option;  (** request deadline *)
  quarantine_after : int;  (** consecutive failures before quarantine *)
  clock : Deadline.clock;
  jobs : int;  (** audit parallelism *)
}

let default_config =
  {
    max_queue = 4;
    deadline_ms = None;
    quarantine_after = 3;
    clock = Deadline.wall_clock;
    jobs = 1;
  }

(* occupancy at which background work sheds *)
let shed_threshold = 0.75

type job = {
  home_id : string;
  id : int;
  ticket : Admission.ticket;
  job_deadline : Deadline.t;
}

(* Each home pairs its durable state with its own failure-streak
   counter: one poison home must not consume another home's strikes. *)
type entry = { home : Home.t; quarantine : Quarantine.t }

type t = {
  config : config;
  admission : Admission.t;
  mutable homes_rev : (string * entry) list;  (** latest registration first *)
  by_id : (string, entry) Hashtbl.t;  (** [homes_rev], for lookup *)
  mutable queue_rev : job list;  (** latest submission first; each job holds its ticket *)
  mutable next_job : int;
}

let create ?(config = default_config) () =
  let admission = Admission.create ~max_per_home:config.max_queue () in
  { config; admission; homes_rev = []; by_id = Hashtbl.create 64; queue_rev = []; next_job = 1 }

let add_home t ~id home =
  if Hashtbl.mem t.by_id id then
    invalid_arg (Printf.sprintf "Broker.add_home: duplicate home %S" id);
  let e = { home; quarantine = Quarantine.create ~threshold:t.config.quarantine_after () } in
  Hashtbl.replace t.by_id id e;
  t.homes_rev <- (id, e) :: t.homes_rev

let remove_home t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> None
  | Some entry ->
    Hashtbl.remove t.by_id id;
    t.homes_rev <- List.remove_assoc id t.homes_rev;
    (* queued jobs for the departing home release their tickets and
       vanish: their home is moving shards, not being dropped silently *)
    let stays, goes = List.partition (fun j -> j.home_id <> id) t.queue_rev in
    List.iter (fun j -> Admission.release t.admission j.ticket) goes;
    t.queue_rev <- stays;
    Some entry.home

let entry t id =
  match Hashtbl.find_opt t.by_id id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Broker: unknown home %S" id)

let home t id = (entry t id).home
let home_opt t id = Option.map (fun e -> e.home) (Hashtbl.find_opt t.by_id id)
let home_ids t = List.rev_map fst t.homes_rev
let homes t = List.rev_map (fun (id, e) -> (id, e.home)) t.homes_rev
let pending_jobs t = List.length t.queue_rev

(* -- failure attribution ------------------------------------------------------ *)

(* One failure against [app] in [e]'s home; tripping the threshold
   journals the quarantine so it survives restarts. *)
let note_failure e ~app ~reason =
  match Quarantine.note_failure e.quarantine ~app ~reason with
  | `Quarantined why -> (
    match Home.quarantine e.home ~app ~reason:why with
    | () -> true
    | exception Fence.Stale _ ->
      (* this broker's home handle holds a stale ownership epoch: the
         journal refused the write, and the home's rightful owner will
         do its own failure accounting — a fenced-off shard must not
         poison the app *)
      false)
  | `Counted _ -> false

(** Attribute an audit's crashes — and, when the run was healthy, its
    budget exhaustions — to apps, and reset the streak of every app
    that came through clean. Budget exhaustion under a degraded run
    (deadline-clamped budget, shed batches) says the service was
    overloaded, not that the app is poison, so it does not count. *)
let note_audit_result e ~degraded ~involved (r : Detector.audit_result) =
  let failed = Hashtbl.create 8 in
  let mark app reason =
    Hashtbl.replace failed app ();
    ignore (note_failure e ~app ~reason)
  in
  List.iter
    (fun (f : Detector.failure) ->
      let a1, a2 = f.apps in
      let reason = "pair detection crashed: " ^ f.exn in
      mark a1 reason;
      mark a2 reason)
    r.Detector.failures;
  if not degraded then
    List.iter
      (fun (th : Threat.t) ->
        if Threat.is_undecided th.Threat.severity then begin
          mark th.Threat.app1.Rule.name "solver budget exhausted";
          mark th.Threat.app2.Rule.name "solver budget exhausted"
        end)
      r.Detector.threats;
  List.iter
    (fun app ->
      if not (Hashtbl.mem failed app) then Quarantine.note_success e.quarantine app)
    involved

(* -- interactive installs ----------------------------------------------------- *)

(* Successful extractions, interned per process: the app store's users
   install the same sources again and again, and rules are extracted
   once per source, as the paper's backend does. An entry is the source
   bytes and their app under the app's name; a different source under
   that name replaces it. A failure raises before anything is held, so
   every failed attempt still counts toward quarantine. *)
let extractions : (string, string * Rule.smartapp) Intern.t = Intern.create ~bound:1024

let extract ~name source =
  match Intern.find extractions name with
  | Some (held, app) when String.equal held source -> Intern.share_app app
  | _ ->
    let app = Intern.share_app (Extract.extract_source ~name source).Extract.app in
    Intern.replace extractions name (source, app);
    app

type install_reply =
  | Proposed of {
      report : Install_flow.report;
      degraded : bool;
          (** the deadline cut the audit short: the threat list is a
              lower bound, never a clean bill *)
      elapsed_ms : float;
    }
  | Busy of { retry_after_ms : int }
  | Quarantined_app of { app : string; reason : string }
  | Install_failed of {
      app : string;
      error : string;
      quarantined : bool;  (** this failure tripped the threshold *)
    }

let install t ~home:home_id ~name ~source () =
  let e = entry t home_id in
  match Home.quarantined e.home |> List.assoc_opt name with
  | Some reason -> Quarantined_app { app = name; reason }
  | None -> (
    match Admission.try_admit t.admission ~home:home_id Admission.Interactive with
    | Error retry_after_ms -> Busy { retry_after_ms }
    | Ok ticket ->
      Fun.protect ~finally:(fun () -> Admission.release t.admission ticket)
      @@ fun () ->
      let started = t.config.clock () in
      let dl = Deadline.make ~clock:t.config.clock ?timeout_ms:t.config.deadline_ms () in
      let fail error =
        let quarantined = note_failure e ~app:name ~reason:error in
        Install_failed { app = name; error; quarantined }
      in
      (match extract ~name source with
      | exception Extract.Extraction_error m -> fail ("extraction failed: " ^ m)
      | exception ex -> fail ("extraction crashed: " ^ Printexc.to_string ex)
      | app -> (
        let budget = Deadline.budget_spec ~base:(Home.config e.home).Detector.budget dl in
        match Home.propose ~budget ~cancel:(Deadline.cancel dl) e.home app with
        | exception ex -> fail ("audit crashed: " ^ Printexc.to_string ex)
        | report ->
          let degraded =
            report.Install_flow.audit.Detector.shed > 0 || Deadline.expired dl
          in
          note_audit_result e ~degraded ~involved:[ name ]
            report.Install_flow.audit;
          Proposed { report; degraded; elapsed_ms = t.config.clock () -. started })))

(* -- background re-audits ----------------------------------------------------- *)

(** Enqueue a full re-audit of one home. The job holds an admission
    ticket from the moment it is accepted, so queued background work
    counts against the bounds and later submissions see honest
    backpressure. *)
let submit_audit t ~home:home_id () =
  ignore (entry t home_id);
  match Admission.try_admit t.admission ~home:home_id Admission.Background with
  | Error retry_after_ms -> Error retry_after_ms
  | Ok ticket ->
    let job_deadline =
      Deadline.make ~clock:t.config.clock ?timeout_ms:t.config.deadline_ms ()
    in
    let id = t.next_job in
    t.next_job <- id + 1;
    t.queue_rev <- { home_id; id; ticket; job_deadline } :: t.queue_rev;
    Ok id

type audit_outcome =
  | Audited of {
      home : string;
      id : int;
      result : Detector.audit_result;
      degraded : bool;
      elapsed_ms : float;
    }
  | Shed_job of { home : string; id : int; reason : Shed.reason }

(** Run (or shed) every queued job, in submission order. A job whose
    deadline already passed is shed outright; under high occupancy
    background jobs are shed to protect interactive latency. Either way
    the reply is a structured [Degraded] — never a silent drop, never
    "no threat". *)
let drain t =
  let jobs = List.rev t.queue_rev in
  t.queue_rev <- [];
  List.map
    (fun job ->
      Fun.protect ~finally:(fun () -> Admission.release t.admission job.ticket)
      @@ fun () ->
      if Deadline.expired job.job_deadline then
        Shed_job { home = job.home_id; id = job.id; reason = Shed.Deadline_expired }
      else if
        Shed.should_shed t.admission ~threshold:shed_threshold
          Admission.Background
      then Shed_job { home = job.home_id; id = job.id; reason = Shed.Overloaded }
      else
        match Hashtbl.find_opt t.by_id job.home_id with
        | None ->
          (* the home moved shards between submit and drain *)
          Shed_job { home = job.home_id; id = job.id; reason = Shed.Overloaded }
        | Some e ->
          let started = t.config.clock () in
          let involved =
            List.filter_map
              (fun (a : Rule.smartapp) ->
                if Home.is_quarantined e.home a.Rule.name then None
                else Some a.Rule.name)
              (Home.installed_apps e.home)
          in
          let result =
            Home.audit ~jobs:t.config.jobs
              ~cancel:(Deadline.cancel job.job_deadline) e.home
          in
          let degraded =
            result.Detector.shed > 0 || Deadline.expired job.job_deadline
          in
          note_audit_result e ~degraded ~involved result;
          Audited
            {
              home = job.home_id;
              id = job.id;
              result;
              degraded;
              elapsed_ms = t.config.clock () -. started;
            })
    jobs

(* -- quarantine management ---------------------------------------------------- *)

let quarantined t ~home:home_id = Home.quarantined (home t home_id)

(* Lifting a quarantine also starts the app's failure streak over. *)
let clear_quarantine t ~home:home_id app =
  let e = entry t home_id in
  Quarantine.note_success e.quarantine app;
  Home.unquarantine e.home app

let quarantined_total t =
  List.fold_left
    (fun acc (_, e) -> acc + List.length (Home.quarantined e.home))
    0 t.homes_rev

let status t =
  Printf.sprintf
    "homes %d in-flight %d/%d queued-jobs %d occupancy %.2f quarantined %d"
    (Hashtbl.length t.by_id)
    (Admission.in_flight t.admission)
    Admission.max_global
    (pending_jobs t)
    (Admission.occupancy t.admission)
    (quarantined_total t)
