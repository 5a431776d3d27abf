(** [big-home]: a power user's home of [apps_for] apps, grown during
    set-up. Closed loop, one client; each event reinstalls one app
    (uninstall it, install and keep it again, as an app update does),
    then reconfigures one (deliver a changed configuration, then
    [submit_audit] + [drain] for a fresh threat report). Install-time
    audits and chain enumeration over a dense kept-threat graph
    dominate; reconfig re-audits are mostly pair-tier hits. A request
    is one event.

    The grown home and the configuration values delivered are the same
    for every seed, and every round of [apps_for] events reinstalls each
    app once and reconfigures each app once: an event's cost depends on
    which app it touches, and configuration values decide which threats
    and chains the home holds, far more than anything else. The seed
    sets the order of the events within each round. *)

open Workload
module App_entry = Homeguard_corpus.App_entry
module Corpus = Homeguard_corpus.Corpus
module Supervisor = Homeguard_fleet.Supervisor
module Home = Homeguard_store.Home
module Install_flow = Homeguard_frontend.Install_flow
module Detector = Homeguard_detector.Detector
module F = Fleet_ops

let home = "big"
let apps_for ~small = if small then 10 else 48

(** Events whose outputs form the regression digest; every run
    completes at least these. *)
let digest_events = 10

(** Every [reference_every]-th event's re-audit is also checked against
    a cache-free full audit of the reference home. *)
let reference_every = 10

(* The event stream, generated as the run goes so it lasts as long as
   the run measures. *)
type walk = {
  rs : Random.State.t;  (** orders, from the seed *)
  values : Random.State.t;  (** configuration values, the same for every seed *)
  apps : App_entry.t list;  (** the home's apps, in install order *)
  mutable configs : (string * string) list;  (** this round's URI per app *)
  mutable round : (App_entry.t * App_entry.t) list;
      (** (reinstall, reconfigure) pairs left in this round *)
  mutable seq : int;
}

(* A round's configuration values, drawn app by app in the fixed order,
   so each app gets the same values whatever order the seed sets. *)
let draw_configs w =
  w.configs <-
    List.map
      (fun (e : App_entry.t) -> (e.App_entry.name, F.config_uri w.values e.App_entry.name))
      w.apps

let deliver w name =
  w.seq <- w.seq + 1;
  F.Deliver { seq = w.seq; uri = List.assoc name w.configs; repeat = false }

let rec next_event w =
  match w.round with
  | (app, target) :: rest ->
    w.round <- rest;
    [ F.Uninstall app.App_entry.name; F.Install app; F.Keep; deliver w target.App_entry.name ]
  | [] ->
    draw_configs w;
    w.round <- List.combine (shuffle w.rs w.apps) (shuffle w.rs w.apps);
    next_event w

let new_walk ~small seed =
  let apps =
    List.filteri
      (fun i _ -> i < apps_for ~small)
      (shuffle (Random.State.make [| 0xb16 |]) Corpus.audit_apps)
  in
  let rs = Random.State.make [| 0xb16; seed |] in
  let w =
    { rs; values = Random.State.make [| 0xc0f |]; apps; configs = []; round = []; seq = 0 }
  in
  draw_configs w;
  w

(* The initial home: every app installed, kept and configured. *)
let initial_ops w =
  List.concat_map
    (fun (e : App_entry.t) -> [ F.Install e; F.Keep; deliver w e.App_entry.name ])
    w.apps

(* Run [ops] on the fleet; the install reports, and a note per failure. *)
let on_fleet ?tracer t r sup ops =
  List.filter_map
    (fun op ->
      match F.exec ?tracer r sup ~home op with
      | F.Report rep -> Some rep
      | F.Ack -> None
      | F.Failed why ->
        check t false ("fleet: " ^ why);
        None)
    ops

(* Replay [ops] on the reference home; its install reports must match
   the fleet's, in order. *)
let on_reference t ref_home ops fleet_reports =
  let reports =
    List.filter_map
      (fun op ->
        match F.reference_exec ref_home op with
        | F.Report rep -> Some (F.report_digest rep)
        | F.Ack -> None
        | F.Failed why ->
          check t false ("reference: " ^ why);
          None)
      ops
  in
  check t (reports = fleet_reports) "install reports differ from the reference"

(* An event as kept for the checks: digests and counts rather than the
   reports themselves, whose chain lists grow large in a dense home. *)
type event = {
  ops : F.op list;
  reports : string list;
  audit : string;
  threats : int list;  (** per install *)
  chains : int;
}

type state = {
  sup : Supervisor.t;
  walk : walk;
  grown : F.op list * string list;  (** the set-up's operations and install reports *)
}

let setup ~small ~root ~seed t i ~untimed =
  let r = F.replies () in
  let dir = Filename.concat root (Printf.sprintf "fleet%d" i) in
  let sup = untimed (fun () -> F.open_fleet ~dir [ home ]) in
  let walk = new_walk ~small seed in
  let ops = initial_ops walk in
  { sup; walk; grown = (ops, List.map F.report_digest (on_fleet t r sup ops)) }

let run (p : params) =
  let t = tally () in
  let st, setup_s =
    repeated_setup
      (setup ~small:p.small ~root:p.root ~seed:p.seed t)
      (fun st -> Supervisor.close st.sup)
  in
  (* the grown home's memory; later the pair tier holds however many
     configurations the run had time for *)
  let heap_mb = live_heap_mb () in
  let r = F.replies () in
  let events = ref [] and digest_state = ref "" in
  let cache0 = F.cache_counters st.sup in
  let m = meter () in
  let i = ref 0 in
  while !i < digest_events || now_s m < p.seconds do
    let traced = traced_request p !i in
    let tracer = if traced then p.tracer else None in
    let ops = next_event st.walk in
    let reports, audit =
      closed m ~traced (fun () ->
          let reports = on_fleet ?tracer t r st.sup ops in
          (reports, F.reaudit ?tracer r st.sup ~home))
    in
    let audit =
      match audit with
      | Ok a -> digest_strings (threat_lines a.Detector.threats)
      | Error why ->
        check t false (Printf.sprintf "event %d: re-audit %s" !i why);
        ""
    in
    events :=
      {
        ops;
        reports = List.map F.report_digest reports;
        audit;
        threats =
          List.map
            (fun (rep : Install_flow.report) -> List.length rep.Install_flow.threats)
            reports;
        chains =
          List.fold_left
            (fun acc (rep : Install_flow.report) -> acc + List.length rep.Install_flow.chains)
            0 reports;
      }
      :: !events;
    if !i + 1 = digest_events then digest_state := F.state_digest st.sup home;
    incr i
  done;
  stop m;
  let cache = F.cache_delta cache0 (F.cache_counters st.sup) in
  let events = List.rev !events in
  (* the reference replays everything after the timed phase *)
  let ref_home = F.reference_home (Filename.concat p.root "ref") in
  on_reference t ref_home (fst st.grown) (snd st.grown);
  List.iteri
    (fun k ev ->
      on_reference t ref_home ev.ops ev.reports;
      if k mod reference_every = 0 then
        check t
          (digest_strings (threat_lines (Home.audit ref_home).Detector.threats) = ev.audit)
          (Printf.sprintf "event %d: re-audit differs from the reference" k))
    events;
  check t
    (F.state_digest st.sup home = Home.state_digest ref_home)
    "final state differs from the reference";
  Supervisor.close st.sup;
  Home.close ref_home;
  List.iter (fun n -> prerr_endline ("big-home: " ^ n)) (List.rev t.notes);
  let first = List.filteri (fun k _ -> k < digest_events) events in
  let threats = List.concat_map (fun ev -> List.map float_of_int ev.threats) events in
  {
    dataset = Printf.sprintf "big-home/apps=%d/seed=%d" (apps_for ~small:p.small) p.seed;
    setup_s;
    latency = m.plain;
    traced_ms = m.traced;
    served = m.served;
    late_ms = m.pacer.Arrivals.late_ms;
    heap_mb;
    attempted = t.attempted;
    failed = t.failed;
    digest =
      digest_strings
        (List.concat_map (fun ev -> ev.reports @ [ ev.audit ]) first @ [ !digest_state ]);
    counts =
      [
        Out.metric "detector.threats_per_install_p50" "count" (Sample.median threats);
        count "detector.threats" (int_of_float (Sample.sum threats));
        count "detector.chains" (List.fold_left (fun acc ev -> acc + ev.chains) 0 events);
      ]
      @ F.cache_metrics cache @ F.reply_metrics r;
    calib = m.calib;
  }
