(** [fleet-restart]: an operator restarts a populated fleet. Closed
    loop; each cycle is [Supervisor.close], [Supervisor.create] on the
    same root (journal replay and merged R=2 recovery), then three
    re-audit sweeps of every home ([submit_audit] + [drain]). The first
    sweep runs with an empty pair tier and a replayed solve tier; the
    next two are warm. Nothing is extracted and no home writes except
    the epoch records each open journals.

    A request is one home's path back to a verified state: its latency
    runs from the start of the restart to that home's first re-audit
    report. Capacity is homes re-audited per second of sweep time. *)

open Workload
module Supervisor = Homeguard_fleet.Supervisor
module Home = Homeguard_store.Home
module Detector = Homeguard_detector.Detector
module F = Fleet_ops

let max_apps = 16
let sweeps = 3
let reference_homes = 60

let homes_for ~small = if small then 12 else 600

type state = {
  homes : (string * F.op list) list;
  dir : string;
  mutable sup : Supervisor.t;
  baseline : (string, string * string) Hashtbl.t;
      (** home -> (state digest, re-audit threat digest) *)
}

let ids st = List.map fst st.homes
let audit_digest (a : Detector.audit_result) = digest_strings (threat_lines a.Detector.threats)

(* One cycle: close, reopen, sweep. Returns the time [Supervisor.create]
   took, each home's time to its first report, and the sweep times;
   [on_audit] sees every re-audit with its sweep index. [between] runs
   after every sweep but the last, outside all of these timings. *)
let cycle ?tracer ?(between = ignore) r st ~on_audit =
  let span name f = Spans.traced tracer name f in
  let t0 = Clock.now_ns () in
  span "fleet.close" (fun () -> Supervisor.close st.sup);
  let sup, create_ms =
    Clock.time (fun () -> span "fleet.create" (fun () -> F.open_fleet ~dir:st.dir (ids st)))
  in
  st.sup <- sup;
  let cache_before = F.cache_counters st.sup in
  let recovered = ref [] and sweep_ms = ref [] and cache_cold = ref cache_before in
  for k = 1 to sweeps do
    let s0 = Clock.now_ns () in
    List.iter
      (fun id ->
        let res = F.reaudit ?tracer r st.sup ~home:id in
        if k = 1 then recovered := Clock.elapsed_ms t0 (Clock.now_ns ()) :: !recovered;
        on_audit k id res)
      (ids st);
    sweep_ms := Clock.elapsed_ms s0 (Clock.now_ns ()) :: !sweep_ms;
    if k = 1 then cache_cold := F.cache_counters st.sup;
    if k < sweeps then between ()
  done;
  let cold = F.cache_delta cache_before !cache_cold in
  let warm = F.cache_delta !cache_cold (F.cache_counters st.sup) in
  (create_ms, !recovered, List.rev !sweep_ms, cold, warm)

let setup ~small ~root ~seed t i ~untimed =
  let r = F.replies () in
  let homes =
    List.map
      (fun (h : F.home) -> (h.F.id, F.populate h))
      (F.fleet ~max_apps ~seed (homes_for ~small))
  in
  let dir = Filename.concat root (Printf.sprintf "fleet%d" i) in
  let sup = untimed (fun () -> F.open_fleet ~dir (List.map fst homes)) in
  List.iter
    (fun (home, ops) ->
      List.iter
        (fun op ->
          match F.exec r sup ~home op with
          | F.Failed why -> check t false (home ^ ": " ^ why)
          | _ -> ())
        ops)
    homes;
  let st = { homes; dir; sup; baseline = Hashtbl.create 1024 } in
  List.iter (fun id -> Hashtbl.replace st.baseline id (F.state_digest sup id, "")) (ids st);
  (* the warm-up cycle fixes each home's re-audit output *)
  let _ =
    cycle r st ~on_audit:(fun k id res ->
        match res with
        | Ok a when k = 1 ->
          let sd, _ = Hashtbl.find st.baseline id in
          Hashtbl.replace st.baseline id (sd, audit_digest a)
        | Ok _ -> ()
        | Error why -> check t false (id ^ ": warm-up re-audit " ^ why))
  in
  st

(* Standalone single-replica replays of sampled homes, no cache: their
   state and re-audit must match the fleet's. *)
let check_reference t ~root st =
  let rs = Random.State.make [| 0x2e5; List.length st.homes |] in
  List.iteri
    (fun i (id, ops) ->
      if i < reference_homes then begin
        let home = F.reference_home (Filename.concat root (Printf.sprintf "ref%d" i)) in
        List.iter (fun op -> ignore (F.reference_exec home op : F.outcome)) ops;
        let sd, ad = Hashtbl.find st.baseline id in
        check t (Home.state_digest home = sd) ("reference state differs in " ^ id);
        check t (audit_digest (Home.audit home) = ad) ("reference re-audit differs in " ^ id);
        Home.close home
      end)
    (shuffle rs st.homes)

let run (p : params) =
  Env.preflight_fds ~homes:(homes_for ~small:p.small) ~replicas:F.config.Supervisor.replicas;
  let t = tally () in
  let st, setup_s =
    repeated_setup
      (setup ~small:p.small ~root:p.root ~seed:p.seed t)
      (fun st -> Supervisor.close st.sup)
  in
  let r = F.replies () in
  let creates = ref [] in
  let replayed = ref 0 and repaired = ref 0 and healed = ref 0 in
  let cold_l1 = ref [] and warm_l1 = ref [] and cold_cache = ref (F.Vcache.zero_counters ()) in
  let fds_per_home = ref 0.0 in
  let m = meter () in
  let i = ref 0 in
  while !i = 0 || now_s m < p.seconds do
    let traced = traced_request p !i in
    let tracer = if traced then p.tracer else None in
    let at_s = now_s m in
    let (create_ms, recovered, sweep_ms, cold, warm), _ =
      Arrivals.call m.pacer (fun () ->
          cycle ?tracer ~between:(fun () -> Calib.catch_up m.calib) r st
            ~on_audit:(fun _ id res ->
              match res with
              | Ok a ->
                let _, ad = Hashtbl.find st.baseline id in
                check t (audit_digest a = ad) ("re-audit changed after restart in " ^ id)
              | Error why -> check t false (id ^ ": " ^ why)))
    in
    Calib.catch_up m.calib;
    List.iter (record m ~traced ~at_s) recovered;
    List.iter (serve m ~from_s:at_s ~units:(List.length st.homes)) sweep_ms;
    creates := create_ms :: !creates;
    let ratio_of (c : F.Vcache.counters) =
      let n = c.pair_hits + c.pair_misses in
      if n = 0 then 0.0 else float_of_int c.pair_hits /. float_of_int n
    in
    cold_l1 := ratio_of cold :: !cold_l1;
    warm_l1 := ratio_of warm :: !warm_l1;
    cold_cache := cold;
    (* replay must reproduce every home's durable state exactly *)
    List.iter
      (fun id ->
        let sd, _ = Hashtbl.find st.baseline id in
        check t (F.state_digest st.sup id = sd) ("state changed across restart in " ^ id))
      (ids st);
    let recs = Supervisor.recoveries st.sup in
    List.iter
      (fun (_, (rep : Home.recovery_report)) ->
        replayed := !replayed + rep.Home.snapshot_records + rep.Home.journal_records;
        repaired := !repaired + rep.Home.repaired_replicas;
        healed := !healed + rep.Home.healed_records)
      recs;
    fds_per_home := float_of_int (Env.open_fds ()) /. float_of_int (List.length st.homes);
    incr i
  done;
  stop m;
  let heap_mb = live_heap_mb () in
  check_reference t ~root:p.root st;
  let digest =
    digest_strings
      (List.map
         (fun id ->
           let sd, ad = Hashtbl.find st.baseline id in
           String.concat " " [ id; sd; ad ])
         (ids st))
  in
  Supervisor.close st.sup;
  List.iter (fun n -> prerr_endline ("fleet-restart: " ^ n)) (List.rev t.notes);
  let create_s = Sample.sum !creates /. 1000.0 in
  {
    dataset =
      Printf.sprintf "fleet-restart/homes=%d/seed=%d" (List.length st.homes) p.seed;
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
        count "fleet.restarts" !i;
        count "store.replayed_records" !replayed;
        Out.metric "store.replay_records_per_s" "1/s"
          (if create_s > 0.0 then float_of_int !replayed /. create_s else 0.0);
        count "store.repaired_replicas" !repaired;
        count "store.healed_records" !healed;
        Out.metric "store.fds_per_home" "count" !fds_per_home;
        Out.metric "vcache.l1_hit_ratio_cold" "ratio" (Sample.median !cold_l1);
        Out.metric "vcache.l1_hit_ratio_warm" "ratio" (Sample.median !warm_l1);
      ]
      @ F.cache_metrics !cold_cache @ F.reply_metrics r;
    calib = m.calib;
  }
