(** [fleet-install]: independent homeowners and their phones, on a
    fleet populated during set-up. Open loop, Poisson arrivals of app
    sessions at a fixed rate for the whole run: a homeowner reinstalls
    one of their apps, as an update does (uninstall, then
    install→report), keeps it (keep→ack), and the app's phone delivers
    its new configuration (ingest→ack); 5% of deliveries are sent twice,
    as an at-least-once transport would. A request is one session, timed
    from its due time to its last ack.

    Each round of sessions reinstalls every app of every home once, in
    a seeded order, and rounds follow one another until the run ends,
    so the mix of work is the same in every second of the run and for
    every seed. Homes are small (mean 3 apps), so the journal write
    path, the cache inserts and extraction are busy and the solver is
    nearly idle. *)

open Workload
module Supervisor = Homeguard_fleet.Supervisor
module Install_flow = Homeguard_frontend.Install_flow
module App_entry = Homeguard_corpus.App_entry
module F = Fleet_ops

let max_apps = 16
let repeat_per_mille = 50
let reference_homes = 200

(** The offered load, in sessions per second. A session is 3.71
    operations on average (uninstall, install, keep, and a delivery for
    the two apps in three that are configured, one in twenty of them
    resent), so this is about 2000 operations per second. Sessions run
    back to back took about 0.19 ms each on a 2.1 GHz Xeon, so the fleet
    is about 10% busy and queueing stays a small part of latency. *)
let sessions_per_s = 540.0

(** The first [digest_sessions] sessions' reports go into the
    regression digest; every run sends at least these. *)
let digest_sessions = 500

let homes_for ~small = if small then 24 else 1000

type input = {
  homes : F.home list;
  due : float array;  (** each session's due time, in seconds into the timed phase *)
  sessions : (string * F.op list) array;  (** (home, session) in send order *)
}

let generate ~small ~seed ~seconds =
  let homes = F.fleet ~max_apps ~seed (homes_for ~small) in
  let due =
    Arrivals.poisson ~seed ~rate:sessions_per_s ~min_n:digest_sessions seconds
  in
  (* every round's configuration values are fixed, like the fleet's *)
  let fixed = Random.State.make [| 0xf1a |] in
  let st = Random.State.make [| 0xf1a; seed |] in
  let seqs = Hashtbl.create 1024 in
  List.iter
    (fun (h : F.home) ->
      Hashtbl.replace seqs h.F.id
        (List.length (List.filter (fun (_, c) -> c <> None) h.F.apps)))
    homes;
  let round () =
    List.concat_map
      (fun (h : F.home) ->
        List.map
          (fun ((e : App_entry.t), config) ->
            (h.F.id, e, Option.map (fun _ -> F.config_uri fixed e.App_entry.name) config))
          h.F.apps)
      homes
  in
  let session (id, (e : App_entry.t), config) =
    ( id,
      [ F.Uninstall e.App_entry.name; F.Install e; F.Keep ]
      @
      match config with
      | None -> []
      | Some uri ->
        let seq = Hashtbl.find seqs id + 1 in
        Hashtbl.replace seqs id seq;
        let d = F.Deliver { seq; uri; repeat = false } in
        if Random.State.int st 1000 < repeat_per_mille then
          [ d; F.Deliver { seq; uri; repeat = true } ]
        else [ d ] )
  in
  (* whole rounds until every due time has a session *)
  let rec rounds acc k =
    if k >= Array.length due then List.concat (List.rev acc)
    else
      let r = List.map session (shuffle st (round ())) in
      rounds (r :: acc) (k + List.length r)
  in
  let sessions = Array.sub (Array.of_list (rounds [] 0)) 0 (Array.length due) in
  { homes; due; sessions }

(* Replay sampled homes on standalone single-replica homes without any
   cache; reports and final state must match the fleet's. *)
let check_reference t ~root sup input reports =
  let st = Random.State.make [| 0x0ac; List.length input.homes |] in
  let sample = List.filteri (fun i _ -> i < reference_homes) (shuffle st input.homes) in
  List.iteri
    (fun i (h : F.home) ->
      let home = F.reference_home (Filename.concat root (Printf.sprintf "ref%d" i)) in
      List.iter (fun op -> ignore (F.reference_exec home op : F.outcome)) (F.populate h);
      let timed =
        Array.to_list input.sessions
        |> List.concat_map (fun (id, ops) -> if id = h.F.id then ops else [])
      in
      let ref_reports =
        List.filter_map
          (fun op ->
            match F.reference_exec home op with
            | F.Report r -> Some (F.report_digest r)
            | _ -> None)
          timed
      in
      check t
        (ref_reports = List.rev (Option.value ~default:[] (Hashtbl.find_opt reports h.F.id)))
        ("install reports differ from the reference in " ^ h.F.id);
      check t
        (F.Home.state_digest home = F.state_digest sup h.F.id)
        ("durable state differs from the reference in " ^ h.F.id);
      F.Home.close home)
    sample

let setup ~small ~root ~seed ~seconds t i ~untimed =
  let r = F.replies () in
  let input = generate ~small ~seed ~seconds in
  let dir = Filename.concat root (Printf.sprintf "fleet%d" i) in
  let ids = List.map (fun (h : F.home) -> h.F.id) input.homes in
  let sup = untimed (fun () -> F.open_fleet ~dir ids) in
  List.iter
    (fun (h : F.home) ->
      List.iter
        (fun op ->
          match F.exec r sup ~home:h.F.id op with
          | F.Failed why -> check t false (h.F.id ^ ": " ^ why)
          | _ -> ())
        (F.populate h))
    input.homes;
  (input, sup, dir)

let run (p : params) =
  let t = tally () in
  Env.preflight_fds ~homes:(homes_for ~small:p.small) ~replicas:F.config.Supervisor.replicas;
  let (input, sup, dir), setup_s =
    repeated_setup
      (setup ~small:p.small ~root:p.root ~seed:p.seed ~seconds:p.seconds t)
      (fun (_, sup, _) -> Supervisor.close sup)
  in
  let populated =
    List.map (fun (h : F.home) -> h.F.id ^ " " ^ F.state_digest sup h.F.id) input.homes
  in
  let r = F.replies () in
  let reports = Hashtbl.create 1024 in
  let installs = ref 0 and acks = ref 0 in
  let threats_per_install = ref [] and chains = ref 0 and threats = ref 0 in
  let first_reports = ref [] in
  let bytes0 = Env.du dir in
  let cache0 = F.cache_counters sup in
  let m = meter () in
  Array.iteri
    (fun i (home, session) ->
      let traced = traced_request p i in
      let outcomes, latency, busy =
        Arrivals.send
          ~idle:(fun due_ns -> Calib.idle m.calib ~due_ns)
          m.pacer input.due.(i) (fun () ->
            List.map (F.exec ?tracer:p.tracer r sup ~home) session)
      in
      record m ~traced ~at_s:input.due.(i) latency;
      serve m ~from_s:input.due.(i) ~units:1 busy;
      List.iter
        (function
          | F.Report rep ->
            incr installs;
            t.attempted <- t.attempted + 1;
            let k = List.length rep.Install_flow.threats in
            threats := !threats + k;
            chains := !chains + List.length rep.Install_flow.chains;
            threats_per_install := float_of_int k :: !threats_per_install;
            let d = F.report_digest rep in
            if i < digest_sessions then first_reports := d :: !first_reports;
            Hashtbl.replace reports home
              (d :: Option.value ~default:[] (Hashtbl.find_opt reports home))
          | F.Ack ->
            incr acks;
            t.attempted <- t.attempted + 1
          | F.Failed why -> check t false (Printf.sprintf "session %d on %s: %s" i home why))
        outcomes)
    input.sessions;
  stop m;
  let heap_mb = live_heap_mb () in
  let bytes = Env.du dir - bytes0 in
  let cache = F.cache_delta cache0 (F.cache_counters sup) in
  check_reference t ~root:p.root sup input reports;
  (* the populated fleet and the first sessions' reports: outputs that
     do not depend on how long the run lasted *)
  let digest = digest_strings (populated @ List.rev !first_reports) in
  let fds = Env.open_fds () in
  Supervisor.close sup;
  let homes = List.length input.homes in
  let fds_per_home = float_of_int (fds - Env.open_fds ()) /. float_of_int homes in
  List.iter (fun n -> prerr_endline ("fleet-install: " ^ n)) (List.rev t.notes);
  {
    dataset =
      Printf.sprintf "fleet-install/homes=%d/rate=%g/seed=%d" homes sessions_per_s p.seed;
    setup_s;
    latency = m.plain;
    traced_ms = m.traced;
    served = m.served;
    late_ms = m.pacer.Arrivals.late_ms;
    heap_mb;
    attempted = t.attempted;
    failed = t.failed;
    digest;
    counts =
      [
        count "detector.threats" !threats;
        count "detector.chains" !chains;
        Out.metric "detector.threats_per_install_p50" "count"
          (Sample.median !threats_per_install);
        count "store.acks" !acks;
        count "store.bytes_written" bytes;
        ratio "store.bytes_per_ack" bytes !acks;
        Out.metric "store.fds_per_home" "count" fds_per_home;
        count "serve.installs" !installs;
      ]
      @ F.cache_metrics cache @ F.reply_metrics r;
    calib = m.calib;
  }
