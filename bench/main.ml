(** Benchmark and experiment harness.

    Regenerates every table and figure of the paper's evaluation
    (§VIII): one section per artifact (see DESIGN.md's per-experiment
    index), each printing the same rows/series the paper reports, plus a
    Bechamel micro-benchmark group with one [Test.make] per table/figure
    measurement. Absolute numbers differ from the paper's testbed (a
    Galaxy S8 and the SmartThings cloud); the shapes are the point. *)

module Rule = Homeguard_rules.Rule
module Rule_json = Homeguard_rules.Rule_json
module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Schedule = Homeguard_detector.Schedule
module Threat = Homeguard_detector.Threat
module Chain = Homeguard_detector.Chain
module Effects = Homeguard_detector.Effects
module Messaging = Homeguard_config.Messaging
module Device = Homeguard_st.Device
module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator
module Engine = Homeguard_sim.Engine
module Trace = Homeguard_sim.Trace
module Scenario = Homeguard_sim.Scenario
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
module Solver = Homeguard_solver.Solver
module Store = Homeguard_solver.Store
module Trajectory = Homeguard_bench.Trajectory
module Bstats = Homeguard_bench.Stats
module Fsutil = Homeguard_bench.Fsutil
open Homeguard_corpus

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let extract_entry (e : App_entry.t) =
  Extract.extract_source ~name:e.App_entry.name e.App_entry.source

let extract_app e = (extract_entry e).Extract.app

let audit_apps = lazy (List.map extract_app Corpus.audit_apps)

let app name = extract_app (Option.get (Corpus.find name))

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Scratch directories for the durable-state sections (J1, O1, F1, C1,
   R1, S1): cleared in-process, no shell-out, and every one of them is
   removed again when the process exits. *)
let scratch_dirs = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun dir ->
          try Fsutil.rm_rf dir
          with
          | Unix.Unix_error (e, _, path) ->
            Printf.eprintf "bench: cannot remove %s: %s\n" path (Unix.error_message e)
          | Sys_error msg -> Printf.eprintf "bench: cannot remove %s: %s\n" dir msg)
        !scratch_dirs)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hg_bench_%s_%d" tag (Unix.getpid ()))
  in
  Fsutil.rm_rf dir;
  if not (List.mem dir !scratch_dirs) then scratch_dirs := dir :: !scratch_dirs;
  dir

(* ------------------------------------------------------------------ E1 *)

let e1_table_ii () =
  section "E1. Table II — rule representation of Rule 1 (ComfortTV)";
  let a = app "ComfortTV" in
  let r = List.hd a.Rule.rules in
  (match r.Rule.trigger with
  | Rule.Event { subject; attribute; constraint_ } ->
    Printf.printf "Trigger   | subject: %s\n" (Rule.subject_to_string subject);
    Printf.printf "          | attribute: %s\n" attribute;
    Printf.printf "          | constraint: %s\n" (Formula.to_string constraint_)
  | Rule.Scheduled _ -> ());
  List.iter
    (fun (v, t) -> Printf.printf "Condition | data: %s = %s\n" v (Term.to_string t))
    r.Rule.condition.Rule.data;
  Printf.printf "          | predicate: %s\n" (Formula.to_string r.Rule.condition.Rule.predicate);
  List.iter
    (fun (a : Rule.action) ->
      Printf.printf "Action    | subject: %s  command: %s  paras: [%s]  when: %d  period: %d\n"
        (Rule.target_to_string a.Rule.target) a.Rule.command
        (String.concat "," (List.map Term.to_string a.Rule.params))
        a.Rule.when_ a.Rule.period)
    r.Rule.actions;
  print_endline "(paper Table II: trigger tv1.switch==on; data t=tSensor.temperature;";
  print_endline " predicate t>threshold1 && window1.switch==off; action window1.on)"

(* ------------------------------------------------------------------ E2 *)

let e2_exploitation () =
  section "E2. §VIII-A — exploitation experiments with the 5 demo apps";
  let demo = List.map extract_app Apps_demo.all in
  let ctx = Detector.create Detector.offline_config in
  let threats = Detector.detect_all ctx demo in
  Printf.printf "static detection: %d threat instances among the 5 apps\n"
    (List.length threats);
  List.iter (fun t -> Printf.printf "  %s\n" (Threat.to_string t)) threats;
  (* dynamic: the Fig 3 race under 20 seeds *)
  let tv = Device.make ~label:"TV" ~device_type:"tv" [ "switch" ] in
  let window = Device.make ~label:"Window" ~device_type:"window" [ "switch" ] in
  let ts = Device.make ~label:"T" ~device_type:"temp" [ "temperatureMeasurement" ] in
  let ws = Device.make ~label:"W" ~device_type:"weather" [ "weatherSensor" ] in
  let setup t =
    Engine.install t (app "ComfortTV")
      [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device ts);
        ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ];
    Engine.install t (app "ColdDefender")
      [ ("tv2", Engine.B_device tv); ("wSensor", Engine.B_device ws);
        ("window2", Engine.B_device window) ];
    Engine.stimulate t ts.Device.id "temperature" "31";
    Engine.stimulate t ws.Device.id "weather" "rainy";
    Engine.stimulate t tv.Device.id "switch" "on"
  in
  let outcomes =
    Scenario.race_outcomes ~seeds:(List.init 20 (fun i -> i + 1)) ~until_ms:10_000 ~setup
      ~device:"Window" ~attribute:"switch" ()
  in
  Printf.printf "dynamic race outcomes across 20 seeded runs: %d distinct\n"
    (List.length outcomes);
  List.iter
    (fun (timeline, final) ->
      Printf.printf "  [%s] final=%s\n" (String.concat "->" timeline)
        (Option.value ~default:"-" final))
    outcomes;
  print_endline "(paper: on only / off only / on-then-off / off-then-on observed)"

(* ------------------------------------------------------------------ E3 *)

let e3_extraction_effectiveness () =
  section "E3. §VIII-B — rule extraction effectiveness";
  let correct = ref 0 and wrong = ref 0 in
  List.iter
    (fun (e : App_entry.t) ->
      let a = extract_app e in
      if List.length a.Rule.rules = e.App_entry.ground_truth_rules then incr correct
      else incr wrong)
    Corpus.rule_defining;
  Printf.printf "rule-defining apps analyzed: %d\n" (List.length Corpus.rule_defining);
  Printf.printf "correct vs manual ground truth: %d (incorrect: %d)\n" !correct !wrong;
  Printf.printf "web-services apps excluded (define no rules): %d\n"
    (List.length Corpus.web_services);
  print_endline "special cases handled by extending the models (paper §VIII-B):";
  print_endline "  FeedMyPet            device.petfeedershield added to the capability list";
  print_endline "  SleepyTime           device.jawboneUser added to the capability list";
  print_endline "  CameraPowerScheduler undocumented runDaily API modeled";
  Printf.printf "(paper: 124/146 before fixes, all special cases fixed; ours: %d/%d)\n" !correct
    (List.length Corpus.rule_defining)

(* ------------------------------------------------------------------ E4 *)

let e4_table_iii () =
  section "E4. Table III — extracting rules from malicious apps";
  Printf.printf "%-34s %-20s %-6s %s\n" "app" "attack class" "rules" "handled?";
  let handled = ref 0 in
  List.iter
    (fun (e : App_entry.t) ->
      let a = extract_app e in
      let analyzable = Apps_malicious.statically_analyzable e in
      let got = List.length a.Rule.rules in
      let ok = analyzable && got = e.App_entry.ground_truth_rules && got > 0 in
      if ok then incr handled;
      let attack =
        match e.App_entry.category with
        | App_entry.Malicious a -> App_entry.attack_to_string a
        | c -> App_entry.category_to_string c
      in
      Printf.printf "%-34s %-20s %-6d %s\n" e.App_entry.name attack got
        (if ok then "yes"
         else if not analyzable then "no (rules outside app / update attack)"
         else "NO"))
    Corpus.malicious;
  Printf.printf "handled: %d/%d (paper: all but endpoint & app-update attacks)\n" !handled
    (List.length Corpus.malicious)

(* ------------------------------------------------------------------ E5 *)

let group_of (a : Rule.smartapp) =
  let controls_mode =
    List.exists
      (fun (r : Rule.t) ->
        List.exists (fun act -> act.Rule.target = Rule.Act_location_mode) r.Rule.actions)
      a.Rule.rules
  in
  let controls_generic_switch =
    List.exists
      (fun (r : Rule.t) ->
        List.exists
          (fun act ->
            match act.Rule.target with
            | Rule.Act_device v ->
              Rule.capability_of_input a v = Some "switch"
              && Effects.classify a v = Effects.Generic_switch
            | _ -> false)
          r.Rule.actions)
      a.Rule.rules
  in
  if controls_mode then `Mode else if controls_generic_switch then `Switch else `Others

let e5_fig8 () =
  section "E5. Fig 8 — CAI statistics over the device-controlling corpus";
  let apps = Lazy.force audit_apps in
  let ctx = Detector.create Detector.offline_config in
  let threats, ms = time_ms (fun () -> Detector.detect_all ctx apps) in
  Printf.printf "apps in the audit pool: %d; exhaustive pairwise analysis in %.0f ms (%d solver calls)\n"
    (List.length apps) ms ctx.Detector.solver_calls;
  Printf.printf "total threat instances: %d\n\n" (List.length threats);
  Printf.printf "%-8s" "group";
  List.iter (fun c -> Printf.printf " %6s" (Threat.category_to_string c)) Threat.all_categories;
  print_newline ();
  List.iter
    (fun (label, group) ->
      Printf.printf "%-8s" label;
      List.iter
        (fun cat ->
          let n =
            List.length
              (List.filter
                 (fun (t : Threat.t) ->
                   t.Threat.category = cat
                   && (group_of t.Threat.app1 = group || group_of t.Threat.app2 = group))
                 threats)
          in
          Printf.printf " %6d" n)
        Threat.all_categories;
      print_newline ())
    [ ("Switch", `Switch); ("Mode", `Mode); ("Others", `Others) ];
  print_endline
    "(paper Fig 8 shape: switch/mode apps involved in all categories; CT and EC dominate)"

(* ------------------------------------------------------------------ P1 *)

(* The parallel batched engine (schedule.ml): plan the candidate pairs
   once, then compare the sequential path against a multi-domain fan-out
   on wall time and solver-call counts. The threat set must be identical
   (order-stable) at every job count — that is the engine's determinism
   guarantee. *)
let p1_parallel_audit () =
  section "P1. Parallel batched audit — 1 domain vs N domains (schedule.ml)";
  let apps = Lazy.force audit_apps in
  let plan_ctx = Detector.create Detector.offline_config in
  let pairs = Detector.candidate_pairs plan_ctx apps in
  let tagged_rules =
    List.fold_left (fun n (a : Rule.smartapp) -> n + List.length a.Rule.rules) 0 apps
  in
  let all_pairs = tagged_rules * (tagged_rules - 1) / 2 in
  Printf.printf "audit plan: %d candidate rule pairs (of %d cross/self pairs) after pre-filters\n"
    (Array.length pairs) all_pairs;
  let run jobs =
    let ctx = Detector.create Detector.offline_config in
    let threats, ms = time_ms (fun () -> Detector.detect_all ~jobs ctx apps) in
    (List.map Threat.to_string threats, ms, ctx.Detector.solver_calls)
  in
  (* At least two domains so the fan-out path is always exercised; on a
     single-core host the comparison degenerates to queue overhead. *)
  let njobs = max 2 (min 4 (Schedule.default_jobs ())) in
  Printf.printf "hardware parallelism (recommended domains): %d\n" (Schedule.default_jobs ());
  let t1, ms1, calls1 = run 1 in
  let tn, msn, callsn = run njobs in
  let no_reuse =
    let ctx =
      Detector.create { Detector.offline_config with Detector.reuse = false }
    in
    ignore (Detector.detect_all ctx apps);
    ctx.Detector.solver_calls
  in
  Printf.printf "%-28s %10s %14s\n" "configuration" "ms" "solver calls";
  Printf.printf "%-28s %10.0f %14d\n" "jobs=1 (sequential)" ms1 calls1;
  Printf.printf "%-28s %10.0f %14d\n" (Printf.sprintf "jobs=%d (domains)" njobs) msn callsn;
  Printf.printf "%-28s %10s %14d\n" "no reuse (ablation)" "-" no_reuse;
  Printf.printf "speedup: %.2fx wall time; symmetric cache saves %d solves vs unmemoized\n"
    (ms1 /. Float.max 0.001 msn)
    (no_reuse - calls1);
  Printf.printf "threat sets identical and order-stable across job counts: %b (%d threats)\n"
    (t1 = tn) (List.length t1);
  let pps ms = float_of_int (Array.length pairs) /. Float.max 0.001 ms *. 1000.0 in
  Printf.printf "throughput: %.0f pairs/sec sequential, %.0f pairs/sec at jobs=%d\n" (pps ms1)
    (pps msn) njobs;
  {
    Trajectory.title = "P1";
    metrics =
      Trajectory.
        [
          metric ~direction:Exact "candidate_pairs" (float_of_int (Array.length pairs));
          metric ~direction:Exact "threats" (float_of_int (List.length t1));
          metric ~direction:Exact "threats_identical_across_jobs"
            (if t1 = tn then 1.0 else 0.0);
          metric ~direction:Exact "solver_calls" (float_of_int calls1);
          metric ~direction:Exact "solver_calls_no_reuse" (float_of_int no_reuse);
          metric ~direction:Info "jobs_n" (float_of_int njobs);
          metric ~unit_:"ms" ~direction:Lower_better "wall_ms_jobs1" ms1;
          metric ~unit_:"ms" ~direction:Lower_better "wall_ms_jobsN" msn;
          metric ~unit_:"pairs/s" ~direction:Higher_better "pairs_per_sec_jobs1" (pps ms1);
          metric ~unit_:"pairs/s" ~direction:Higher_better "pairs_per_sec_jobsN" (pps msn);
        ];
  }

(* ------------------------------------------------------------------ P2 *)

(* Budget-check overhead: the fuel counters are decremented on every
   propagation step and search node, so compare the corpus audit with
   budgets disabled against the default budgets, sequentially and at the
   hardware job count. Under default budgets the whole corpus must stay
   decided (zero undecided pairs). *)
let p2_budget_overhead () =
  let module Budget = Homeguard_solver.Budget in
  section "P2. Solver budget overhead — unlimited vs default budgets";
  let apps = Lazy.force audit_apps in
  let run ~jobs spec =
    let ctx = Detector.create { Detector.offline_config with Detector.budget = spec } in
    let result, ms = time_ms (fun () -> Detector.audit_all ~jobs ctx apps) in
    (ms, result.Detector.undecided, List.length result.Detector.failures)
  in
  let njobs = Schedule.default_jobs () in
  Printf.printf "%-34s %10s %10s %8s\n" "configuration" "ms" "undecided" "failed";
  let metrics =
    List.concat_map
      (fun (label, key, jobs, spec) ->
        let ms, undecided, failed = run ~jobs spec in
        Printf.printf "%-34s %10.0f %10d %8d\n" label ms undecided failed;
        Trajectory.
          [
            metric ~unit_:"ms" ~direction:Lower_better ("wall_ms_" ^ key) ms;
            metric ~direction:Exact ("undecided_" ^ key) (float_of_int undecided);
            metric ~direction:Exact ("failed_" ^ key) (float_of_int failed);
          ])
      [
        ("jobs=1, no budget", "jobs1_nobudget", 1, Budget.unlimited_spec);
        ("jobs=1, default budget", "jobs1_default", 1, Budget.default_spec);
        (Printf.sprintf "jobs=%d, no budget" njobs, "jobsN_nobudget", njobs, Budget.unlimited_spec);
        (Printf.sprintf "jobs=%d, default budget" njobs, "jobsN_default", njobs, Budget.default_spec);
      ]
  in
  print_endline
    "(budget checks are two int decrements per step; default budgets must leave 0 undecided)";
  { Trajectory.title = "P2"; metrics }

(* ------------------------------------------------------------------ E6 *)

let e6_extraction_cost () =
  section "E6. §VIII-C — rule extraction computation and storage";
  let entries = Corpus.rule_defining in
  let runs = 10 in
  let _, total_ms =
    time_ms (fun () ->
        for _ = 1 to runs do
          List.iter (fun e -> ignore (extract_entry e)) entries
        done)
  in
  let per_app = total_ms /. float_of_int (runs * List.length entries) in
  let sizes =
    List.map (fun e -> String.length (Rule_json.to_string (extract_app e))) entries
  in
  let avg_size = List.fold_left ( + ) 0 sizes / List.length sizes in
  Printf.printf "extraction time: %.2f ms/app averaged over %d runs x %d apps\n" per_app runs
    (List.length entries);
  Printf.printf "rule-file size: %d bytes/app average (min %d, max %d)\n" avg_size
    (List.fold_left min max_int sizes)
    (List.fold_left max 0 sizes);
  print_endline "(paper: 1341 ms/app on a 3.4GHz i7 running Groovy; 6.2 KB/app JSON —";
  print_endline " the OCaml extractor is orders faster, file sizes the same order)"

(* ------------------------------------------------------------------ E7 *)

let e7_messaging () =
  section "E7. §VIII-C — configuration collection latency (100 trials)";
  let m = Messaging.create ~seed:42 () in
  let sms = Messaging.measure_mean m Messaging.Sms ~trials:100 in
  let http = Messaging.measure_mean m Messaging.Http ~trials:100 in
  Printf.printf "cloud-side processing (T2-T1): ~%.0f ms (paper: 27 ms)\n"
    Messaging.cloud_processing_mean;
  Printf.printf "SMS   end-to-end mean: %.0f ms (paper: 3120 ms)\n" sms;
  Printf.printf "HTTP  end-to-end mean: %.0f ms (paper: 1058 ms)\n" http;
  Printf.printf "crossover: HTTP is %.1fx faster than SMS (paper: ~2.9x)\n" (sms /. http)

(* ------------------------------------------------------------------ E8 *)

let pair_of name1 name2 =
  let a1 = app name1 and a2 = app name2 in
  ((a1, List.hd a1.Rule.rules), (a2, List.hd a2.Rule.rules))

let measure_detection ?(iters = 50) ~reuse pair detect_fn =
  let p1, p2 = pair in
  let _, ms =
    time_ms (fun () ->
        for _ = 1 to iters do
          let ctx = Detector.create { Detector.offline_config with Detector.reuse } in
          ignore (detect_fn ctx p1 p2 : Threat.t list)
        done)
  in
  ms /. float_of_int iters

let e8_fig9 ?(iters = 50) () =
  section "E8. Fig 9 — per-pair detection overhead by threat type";
  let ar_pair = pair_of "ComfortTV" "ColdDefender" in
  let gc_pair = pair_of "ItsTooCold" "ComfortWindow" in
  let ct_pair = pair_of "CatchLiveShow" "ComfortTV" in
  let ec_pair = pair_of "NightCare" "BurglarFinder" in
  let rows =
    [
      ("AR", "ar", measure_detection ~iters ~reuse:true ar_pair Detector.detect_ar, "full solve");
      ("GC", "gc", measure_detection ~iters ~reuse:true gc_pair Detector.detect_gc, "full solve");
      ( "CT/SD/LT (fresh)",
        "ct_sd_lt",
        measure_detection ~iters ~reuse:false ct_pair Detector.detect_trigger_interference,
        "solves conditions itself" );
      ( "EC/DC (fresh)",
        "ec_dc",
        measure_detection ~iters ~reuse:false ec_pair Detector.detect_condition_interference,
        "half the constraints of AR" );
    ]
  in
  Printf.printf "%-22s %10s   %s\n" "threat type" "ms/pair" "note";
  List.iter (fun (n, _, ms, note) -> Printf.printf "%-22s %10.3f   %s\n" n ms note) rows;
  (* reuse ablation (A1): full pipeline on one pair with/without memo;
     solver-call counts are the paper's metric (Fig 9's green lines) *)
  (* It's Too Hot vs Energy Saver is both an AR candidate and a CT pair,
     so the trigger-interference pass re-asks AR's conditions-overlap
     question — exactly the duplicate the memo removes *)
  let sd_pair = pair_of "ItsTooHot" "EnergySaver" in
  let full ctx p1 p2 = Detector.detect_pair ctx p1 p2 in
  let with_reuse = measure_detection ~iters ~reuse:true sd_pair full in
  let without = measure_detection ~iters ~reuse:false sd_pair full in
  let calls reuse =
    let ctx = Detector.create { Detector.offline_config with Detector.reuse } in
    let p1, p2 = sd_pair in
    ignore (Detector.detect_pair ctx p1 p2);
    ctx.Detector.solver_calls
  in
  Printf.printf "\nA1 ablation — all seven detections on one pair:\n";
  Printf.printf "  with solver-result reuse:     %.3f ms, %d constraint solves\n" with_reuse
    (calls true);
  Printf.printf "  without reuse (fresh solves): %.3f ms, %d constraint solves (%.2fx time)\n"
    without (calls false)
    (without /. Float.max 0.000001 with_reuse);
  print_endline "(paper Fig 9: constraint solving dominates; CT/SD/LT reuse the AR";
  print_endline " result and DC reuses EC; max total 1156 ms on a Galaxy S8)";
  {
    Trajectory.title = "FIG9";
    metrics =
      List.map
        (fun (_, key, ms, _) ->
          Trajectory.metric ~unit_:"ms" ~direction:Trajectory.Lower_better
            ("ms_per_pair_" ^ key) ms)
        rows
      @ Trajectory.
          [
            metric ~unit_:"ms" ~direction:Lower_better "a1_ms_with_reuse" with_reuse;
            metric ~unit_:"ms" ~direction:Lower_better "a1_ms_without_reuse" without;
            metric ~direction:Exact "a1_solves_with_reuse" (float_of_int (calls true));
            metric ~direction:Exact "a1_solves_without_reuse" (float_of_int (calls false));
          ];
  }

(* ------------------------------------------------------------------ E9 *)

let e9_chained () =
  section "E9. §VI-D — chained CAI threats";
  let make_it_so = app "MakeItSo" in
  let scm = app "SwitchChangesMode" in
  let curling = app "CurlingIron" in
  let ctx = Detector.create Detector.offline_config in
  let allowed = Chain.create () in
  let kept = Detector.detect_all ctx [ make_it_so; scm ] in
  Chain.allow allowed kept;
  Printf.printf "allowed pairs recorded: %d threats kept by the user\n" (List.length kept);
  let fresh =
    List.concat_map
      (fun r1 ->
        List.concat_map
          (fun (a2 : Rule.smartapp) ->
            List.concat_map
              (fun r2 -> Detector.detect_pair ctx (curling, r1) (a2, r2))
              a2.Rule.rules)
          [ make_it_so; scm ])
      curling.Rule.rules
  in
  Printf.printf "new threats when installing CurlingIron: %d\n" (List.length fresh);
  let chains = Chain.find_chains allowed fresh in
  Printf.printf "chained threats: %d\n" (List.length chains);
  List.iter (fun c -> Printf.printf "  %s\n" (Chain.chain_to_string c)) chains;
  print_endline "(paper §VIII-B(2): motion -> outlets on -> mode change -> door unlocked)"

(* ------------------------------------------------------------------ E10 *)

let e10_table_v () =
  section "E10. Table V — comparison with related work";
  Printf.printf "%-12s %-16s %-18s %-14s %s\n" "system" "inter-app" "proactive defense"
    "low overhead" "no runtime intervention";
  List.iter
    (fun (n, a, b, c, d) -> Printf.printf "%-12s %-16s %-18s %-14s %s\n" n a b c d)
    [
      ("ContexIoT", "no", "no", "no", "no");
      ("ProvThings", "yes", "no", "yes", "yes");
      ("SmartAuth", "no", "yes", "yes", "yes");
      ("HomeGuard", "yes", "yes", "yes", "yes");
    ]

(* ------------------------------------------------------------------ A2 *)

let a2_ast_grep_ablation () =
  section "A2. Ablation — symbolic execution vs AST keyword search";
  let apps_with_conditions =
    List.filter
      (fun (e : App_entry.t) ->
        let a = extract_app e in
        List.exists
          (fun (r : Rule.t) -> r.Rule.condition.Rule.predicate <> Formula.True)
          a.Rule.rules)
      Corpus.rule_defining
  in
  (* The SmartAuth-style grep baseline recovers subscriptions and sink
     names but tracks no data flow, so it recovers no predicate
     constraints (paper §V-B "why did prior approaches fail?"). *)
  let grep_constraints_found = 0 in
  let symx_constraints_found =
    List.fold_left
      (fun acc (e : App_entry.t) ->
        let a = extract_app e in
        acc
        + List.length
            (List.filter
               (fun (r : Rule.t) -> r.Rule.condition.Rule.predicate <> Formula.True)
               a.Rule.rules))
      0 apps_with_conditions
  in
  Printf.printf "apps whose rules carry predicate constraints: %d\n"
    (List.length apps_with_conditions);
  Printf.printf "condition-bearing rules recovered — symbolic execution: %d, AST grep: %d\n"
    symx_constraints_found grep_constraints_found;
  print_endline "(without constraints, overlap detection degenerates: every candidate";
  print_endline " pair would be reported, which is why the paper rejects AST search)"

(* ------------------------------------------------------------------ A3 *)

let a3_solver_ablation ?(iters = 500) () =
  section "A3. Ablation — DNF solving vs lazy DPLL splitting";
  let p1, p2 = pair_of "ComfortTV" "ColdDefender" in
  let f = Formula.conj [ Rule.situation (snd p1); Rule.situation (snd p2) ] in
  let store = Rule.store_for_rules [ p1; p2 ] in
  let _, dnf_ms =
    time_ms (fun () ->
        for _ = 1 to iters do
          ignore (Solver.satisfiable store f)
        done)
  in
  let _, dpll_ms =
    time_ms (fun () ->
        for _ = 1 to iters do
          ignore (Solver.satisfiable_dpll store f)
        done)
  in
  let per ms = ms /. float_of_int iters in
  Printf.printf "merged Fig-3 constraint set, %d solves each:\n" iters;
  Printf.printf "  DNF + propagate-and-split: %.4f ms/solve\n" (per dnf_ms);
  Printf.printf "  lazy DPLL splitting:       %.4f ms/solve\n" (per dpll_ms);
  print_endline "(rule formulas are small: both are far below the paper's JaCoP times)";
  {
    Trajectory.title = "A3";
    metrics =
      Trajectory.
        [
          metric ~unit_:"us" ~direction:Lower_better "dnf_us_per_solve" (per dnf_ms *. 1000.0);
          metric ~unit_:"us" ~direction:Lower_better "dpll_us_per_solve" (per dpll_ms *. 1000.0);
        ];
  }

(* ------------------------------------------------------------------ X1 *)

(* Multi-platform applicability (paper §VIII-D4, Table IV): IFTTT
   template rules lower into the same IR, so cross-platform CAI
   detection needs no new machinery. *)
let x1_multi_platform () =
  section "X1. Extension — §VIII-D4 multi-platform rules (IFTTT templates)";
  let applets =
    Homeguard_ifttt.Ifttt.parse_recipes ~name:"IftttRecipes"
      {|
# the homeowner's IFTTT account
IF hall.motion IS active THEN floorLamp DO on
EVERY DAY AT 19:00 THEN floorLamp DO on
|}
  in
  Printf.printf "parsed %d IFTTT applets into the shared rule IR\n"
    (List.length applets.Rule.rules);
  let night_care = app "NightCare" in
  let ctx = Detector.create Detector.offline_config in
  let threats = Detector.detect_all ctx [ applets; night_care ] in
  Printf.printf "cross-platform threats vs the NightCare SmartApp: %d\n" (List.length threats);
  List.iter (fun t -> Printf.printf "  %s\n" (Threat.to_string t)) threats;
  print_endline "(paper Table IV: only the rule extractor is platform-specific;";
  print_endline " template platforms need text parsing, not symbolic execution)"

(* ------------------------------------------------------------------ H1 *)

(* §VII handling: replay the E2 exploitation scenarios under the runtime
   mediator with the per-category default decisions. The witnesses the
   scenarios exist to exhibit must disappear; the mediation overhead per
   judged command is measured at the end. *)
let h1_mediation () =
  section "H1. §VII — threat handling: E2 exploits re-run under mediation";
  let threats_of names =
    let ctx = Detector.create Detector.offline_config in
    Detector.detect_all ctx (List.map app names)
  in
  let mediator_of threats () = Mediator.create (Policy.create ()) threats in
  let tv = Device.make ~label:"TV" ~device_type:"tv" [ "switch" ] in
  let window = Device.make ~label:"Window" ~device_type:"window" [ "switch" ] in
  let ts = Device.make ~label:"T" ~device_type:"temp" [ "temperatureMeasurement" ] in
  let ws = Device.make ~label:"W" ~device_type:"weather" [ "weatherSensor" ] in
  let voice = Device.make ~label:"Voice" ~device_type:"speaker" [ "musicPlayer" ] in
  let lamp = Device.make ~label:"Lamp" ~device_type:"light" [ "switch" ] in
  let motion = Device.make ~label:"Motion" ~device_type:"motion" [ "motionSensor" ] in
  let siren = Device.make ~label:"Siren" ~device_type:"alarm" [ "alarm" ] in
  let comfort t =
    Engine.install t (app "ComfortTV")
      [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device ts);
        ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ]
  in
  let race_setup t =
    comfort t;
    Engine.install t (app "ColdDefender")
      [ ("tv2", Engine.B_device tv); ("wSensor", Engine.B_device ws);
        ("window2", Engine.B_device window) ];
    Engine.stimulate t ts.Device.id "temperature" "31";
    Engine.stimulate t ws.Device.id "weather" "rainy";
    Engine.stimulate t tv.Device.id "switch" "on"
  in
  let run_scenario ?mediator ~until_ms setup =
    let t = Engine.create ~seed:1 ?mediator () in
    setup t;
    Engine.run t ~until_ms;
    (Engine.trace t, mediator)
  in
  (* AR: the Fig 3 window race *)
  let race_threats = threats_of [ "ComfortTV"; "ColdDefender" ] in
  let plain, _ = run_scenario ~until_ms:10_000 race_setup in
  let mediated, _ =
    run_scenario ~mediator:(mediator_of race_threats ()) ~until_ms:10_000 race_setup
  in
  Printf.printf "AR race:    window flaps %d -> %d, opposite commands %b -> %b\n"
    (Trace.flap_count plain "Window" "switch")
    (Trace.flap_count mediated "Window" "switch")
    (Trace.opposite_commands_within plain "Window" ~window_ms:10_000
       ~opposites:[ ("on", "off") ])
    (Trace.opposite_commands_within mediated "Window" ~window_ms:10_000
       ~opposites:[ ("on", "off") ]);
  (* CT: CatchLiveShow covertly opening the window through ComfortTV *)
  let covert_setup t =
    comfort t;
    Engine.install t (app "CatchLiveShow")
      [ ("voicePlayer", Engine.B_device voice); ("tv3", Engine.B_device tv) ];
    Engine.stimulate t ts.Device.id "temperature" "31";
    Engine.stimulate t voice.Device.id "status" "playing"
  in
  let ct_threats = threats_of [ "ComfortTV"; "CatchLiveShow" ] in
  let plain, _ = run_scenario ~until_ms:10_000 covert_setup in
  let mediated, _ =
    run_scenario ~mediator:(mediator_of ct_threats ()) ~until_ms:10_000 covert_setup
  in
  let show = function Some v -> v | None -> "-" in
  Printf.printf "CT covert:  window ends %s -> %s (suppressed commands: %d)\n"
    (show (Trace.final_attribute plain "Window" "switch"))
    (show (Trace.final_attribute mediated "Window" "switch"))
    (List.length (Trace.suppressed_commands mediated "Window"));
  (* DC: NightCare's lamp-off bypassing BurglarFinder's alarm *)
  let disable_setup t =
    Engine.install t (app "BurglarFinder")
      [ ("motion1", Engine.B_device motion); ("floorLamp", Engine.B_device lamp);
        ("alarm1", Engine.B_device siren) ];
    Engine.install t (app "NightCare") [ ("lamp5", Engine.B_device lamp) ];
    Engine.set_mode t "Night"
  in
  let disable_run ?mediator () =
    let t = Engine.create ~seed:1 ?mediator () in
    disable_setup t;
    Engine.run t ~until_ms:1_000;
    Engine.stimulate t lamp.Device.id "switch" "on";
    Engine.run t ~until_ms:400_000;
    Engine.stimulate t motion.Device.id "motion" "active";
    Engine.run t ~until_ms:500_000;
    Engine.trace t
  in
  let dc_threats = threats_of [ "BurglarFinder"; "NightCare" ] in
  let plain = disable_run () in
  let mediated = disable_run ~mediator:(mediator_of dc_threats ()) () in
  Printf.printf "DC disable: lamp ends %s -> %s, alarm %s -> %s\n"
    (show (Trace.final_attribute plain "Lamp" "switch"))
    (show (Trace.final_attribute mediated "Lamp" "switch"))
    (show (Trace.final_attribute plain "Siren" "alarm"))
    (show (Trace.final_attribute mediated "Siren" "alarm"));
  (* per-command mediation overhead over repeated race runs *)
  let reps = 200 in
  let _, t_plain =
    time_ms (fun () ->
        for _ = 1 to reps do
          ignore (run_scenario ~until_ms:10_000 race_setup)
        done)
  in
  let sample_m = mediator_of race_threats () in
  let _, t_med =
    time_ms (fun () ->
        for _ = 1 to reps do
          ignore (run_scenario ~mediator:(mediator_of race_threats ()) ~until_ms:10_000 race_setup)
        done)
  in
  let _, _ = run_scenario ~mediator:sample_m ~until_ms:10_000 race_setup in
  let judged = (Mediator.stats sample_m).Mediator.consulted in
  Printf.printf
    "mediation overhead: %.2fms -> %.2fms over %d runs (%d judged commands/run, %+.2fus per command)\n"
    t_plain t_med reps judged
    (if judged = 0 then 0.0 else (t_med -. t_plain) *. 1000.0 /. float_of_int (reps * judged));
  print_endline "(all three E2 witnesses disappear under the default §VII decisions)"

(* ------------------------------------------------------------------ J1 *)

(* Durable home-state journal: append throughput with and without the
   per-append fsync point, recovery replay time from a populated
   journal, and compaction time / size reduction. *)
let j1_journal () =
  section "J1. Durable journal: append / replay / compaction throughput";
  let module Journal = Homeguard_store.Journal in
  let module Event = Homeguard_store.Event in
  let module Home = Homeguard_store.Home in
  let config_payload i =
    Event.to_string
      (Event.Config
         { seq = Some i; uri = Printf.sprintf "http://my.com/appname:App%d/x:%d/" (i mod 7) i })
  in
  let append_run ~fsync n =
    let dir = fresh_dir "append" in
    Unix.mkdir dir 0o755;
    let j = Journal.open_append ~fsync (Filename.concat dir "journal") in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to n do
            Journal.append j (config_payload i)
          done)
    in
    Journal.close j;
    (ms, float_of_int n /. ms *. 1000.0)
  in
  let n_buffered = 5_000 and n_synced = 500 in
  let ms_b, rate_b = append_run ~fsync:false n_buffered in
  Printf.printf "append (no fsync):   %5d records in %7.1fms (%.0f rec/s)\n" n_buffered ms_b
    rate_b;
  let ms_s, rate_s = append_run ~fsync:true n_synced in
  Printf.printf "append (fsync each): %5d records in %7.1fms (%.0f rec/s)\n" n_synced ms_s
    rate_s;
  (* recovery replay: a home with the two demo apps, a decision and a
     run of sequenced configs *)
  let dir = fresh_dir "home" in
  let home, _ = Home.open_ ~dir () in
  for i = 1 to 200 do
    ignore
      (Home.deliver home ~seq:i (Printf.sprintf "http://my.com/appname:App%d/x:%d/" (i mod 7) i))
  done;
  (match Home.install_app home (app "ComfortTV") with _ -> ());
  (match Home.install_app home (app "ColdDefender") with _ -> ());
  Home.set_decision home "EC:ColdDefender/ColdDefender#1->ComfortTV/ComfortTV#1" Policy.Allow;
  let jsize = Home.journal_size home in
  Home.close home;
  let (home, report), ms_replay = time_ms (fun () -> Home.open_ ~dir ()) in
  Printf.printf "recovery replay:     %d records (%d bytes) in %.1fms\n"
    report.Home.journal_records jsize ms_replay;
  let (), ms_compact = time_ms (fun () -> Home.compact home) in
  Printf.printf "compaction:          %d -> %d bytes in %.1fms\n" jsize
    (Home.snapshot_size home) ms_compact;
  Home.close home;
  let (home', report'), ms_replay' = time_ms (fun () -> Home.open_ ~dir ()) in
  Printf.printf "replay post-compact: %d snapshot records in %.1fms\n"
    report'.Home.snapshot_records ms_replay';
  Home.close home'

(* ------------------------------------------------------------------ O1 *)

(* Overload-safe serving: the same stall-injected install workload
   through the bare engine (every solve runs to completion, latency is
   whatever the stalls make it) and through the broker with a deadline
   (remaining allowance becomes the solver budget, expired work is
   shed). The broker trades completeness under overload — degraded
   replies, threats as a lower bound — for a bounded tail. *)
let o1_overload_serving () =
  section "O1. Overload-safe serving: request latency under stall injection";
  let module Broker = Homeguard_serve.Broker in
  let module Fault = Homeguard_solver.Fault in
  let module Home = Homeguard_store.Home in
  let module Install_flow = Homeguard_frontend.Install_flow in
  let setup tag =
    let home, _ = Home.open_ ~fsync:false ~dir:(fresh_dir tag) () in
    List.iter
      (fun n ->
        ignore (Home.propose home (app n));
        Home.decide home Install_flow.Keep)
      [ "AtticFanController"; "SmokeVent"; "VentWhenHumid" ];
    home
  in
  let report label n total_ms lats degraded =
    (* nearest-rank percentiles over completed requests only; a run
       where every request was shed has no latency sample to summarize *)
    match (Bstats.mean lats, Bstats.percentile 0.95 lats, Bstats.percentile 1.0 lats) with
    | Some mean, Some p95, Some max_lat ->
      Printf.printf
        "%-26s %3d req in %7.1fms (%5.1f req/s)  mean %5.1fms  p95 %5.1fms  max %5.1fms  degraded %d\n"
        label n total_ms
        (float_of_int n /. total_ms *. 1000.0)
        mean p95 max_lat degraded
    | _ ->
      Printf.printf "%-26s %3d req in %7.1fms — no completed requests\n" label n total_ms
  in
  let requests = 25 in
  let src = (Option.get (Corpus.find "BathroomFanTimer")).App_entry.source in
  (* baseline: the pre-broker path, no deadline, no shedding *)
  let bare () =
    let home = setup "bare" in
    let lats = ref [] in
    let (), total_ms =
      time_ms (fun () ->
          for _ = 1 to requests do
            let (), ms =
              time_ms (fun () ->
                  ignore (Home.propose home (app "BathroomFanTimer"));
                  Home.decide home Install_flow.Reject)
            in
            lats := ms :: !lats
          done)
    in
    Home.close home;
    report "bare engine (no deadline)" requests total_ms !lats 0
  in
  let brokered ~label deadline_ms =
    let home = setup "broker" in
    let config = { Broker.default_config with Broker.deadline_ms } in
    let broker = Broker.create ~config () in
    Broker.add_home broker ~id:"home" home;
    let lats = ref [] and degraded = ref 0 in
    let (), total_ms =
      time_ms (fun () ->
          for _ = 1 to requests do
            match Broker.install broker ~home:"home" ~name:"BathroomFanTimer" ~source:src () with
            | Broker.Proposed { degraded = d; elapsed_ms; _ } ->
              if d then incr degraded;
              lats := elapsed_ms :: !lats;
              Home.decide home Install_flow.Reject
            | Broker.Busy _ | Broker.Quarantined_app _ | Broker.Install_failed _ -> ()
          done)
    in
    Home.close home;
    report label requests total_ms !lats !degraded
  in
  (* every solve sleeps 10 ms: the slow-solver regime *)
  Fault.arm ~seed:11 ~rate_per_thousand:1000 (Fault.Stall 10.0);
  bare ();
  brokered ~label:"broker, no deadline" None;
  brokered ~label:"broker, 25 ms deadline" (Some 25.0);
  Fault.disarm ();
  print_endline
    "(the deadline bounds the tail by shedding; degraded replies never claim a clean bill)"

(* ------------------------------------------------------------------ F1 *)

(* Fleet under partial failure: the same synthetic-home config workload
   through a 4-shard supervisor with 0, 1 and 2 shards killed and held
   down (tick is never called, so nothing recovers mid-sweep). The
   fault-isolation claim is proportionality: every home owned by a
   surviving shard is served in full, every home owned by a dead shard
   is refused honestly — throughput loses at most the dead shards'
   share, never collapses to zero. A seeded smoke chaos campaign then
   contributes the scale-independent invariant counters that gate CI. *)
let f1_fleet () =
  section "F1. Fleet under partial failure — throughput with 0/1/2 dead shards";
  let module Supervisor = Homeguard_fleet.Supervisor in
  let module Chaos = Homeguard_fleet.Chaos in
  let module Synth = Homeguard_corpus.Synth in
  let n_homes = 16 and n_shards = 4 in
  let synth = Corpus.synth ~seed:7 ~n_homes in
  let total_configs =
    List.fold_left (fun a (h : Synth.home) -> a + List.length h.Synth.configs) 0 synth
  in
  Printf.printf "fleet: %d synthetic homes over %d shards, %d config deliveries\n" n_homes
    n_shards total_configs;
  let sweep ~dead =
    let dir = fresh_dir (Printf.sprintf "fleet_d%d" dead) in
    let config =
      { Supervisor.default_config with Supervisor.shards = n_shards; fsync = false }
    in
    let sup =
      Supervisor.create ~config ~dir
        ~homes:(List.map (fun (h : Synth.home) -> h.Synth.id) synth)
        ()
    in
    for s = 0 to dead - 1 do
      ignore (Supervisor.kill sup s)
    done;
    let live id =
      match Supervisor.owner_of sup id with
      | Some s -> Supervisor.shard_state sup s = `Running
      | None -> false
    in
    let served_homes = List.length (List.filter (fun (h : Synth.home) -> live h.Synth.id) synth) in
    let served_ops = ref 0 and refused_ops = ref 0 and isolation_ok = ref true in
    let (), ms =
      time_ms (fun () ->
          List.iter
            (fun (h : Synth.home) ->
              let expect_live = live h.Synth.id in
              List.iteri
                (fun i uri ->
                  match Supervisor.deliver sup ~home:h.Synth.id ~seq:(i + 1) uri with
                  | Supervisor.Done _ ->
                    incr served_ops;
                    if not expect_live then isolation_ok := false
                  | Supervisor.Unavailable _ | Supervisor.Crashed _ ->
                    incr refused_ops;
                    if expect_live then isolation_ok := false)
                h.Synth.configs)
            synth)
    in
    Supervisor.close sup;
    let homes_per_sec = float_of_int served_homes /. Float.max 0.001 ms *. 1000.0 in
    Printf.printf
      "dead=%d: %2d/%2d homes served (%4d ops, %3d refused) in %6.1fms  %7.0f homes/s  isolation %s\n"
      dead served_homes n_homes !served_ops !refused_ops ms homes_per_sec
      (if !isolation_ok then "ok" else "VIOLATED");
    (served_homes, !served_ops, !refused_ops, !isolation_ok, homes_per_sec)
  in
  let s0, o0, r0, i0, hps0 = sweep ~dead:0 in
  let s1, o1, _, i1, hps1 = sweep ~dead:1 in
  let s2, o2, _, i2, hps2 = sweep ~dead:2 in
  Printf.printf
    "proportionality: survivors keep serving every home they own; capacity lost is the dead shards' share\n";
  let chaos = Chaos.run ~config:Chaos.smoke_config ~dir:(fresh_dir "fleet_chaos") () in
  Printf.printf
    "chaos smoke: %s — %d shards killed, %d recovered, %d ops, %d served while impaired\n"
    (if Chaos.passed chaos then "passed" else "FAILED")
    chaos.Chaos.shards_killed chaos.Chaos.shards_recovered chaos.Chaos.ops
    chaos.Chaos.served_while_impaired;
  {
    Trajectory.title = "F1";
    metrics =
      Trajectory.
        [
          metric ~direction:Info "shards" (float_of_int n_shards);
          metric ~direction:Exact "fleet_homes" (float_of_int n_homes);
          metric ~direction:Exact "served_homes_dead0" (float_of_int s0);
          metric ~direction:Exact "served_homes_dead1" (float_of_int s1);
          metric ~direction:Exact "served_homes_dead2" (float_of_int s2);
          metric ~direction:Exact "served_ops_dead0" (float_of_int o0);
          metric ~direction:Exact "served_ops_dead1" (float_of_int o1);
          metric ~direction:Exact "served_ops_dead2" (float_of_int o2);
          metric ~direction:Exact "refused_ops_dead0" (float_of_int r0);
          metric ~direction:Exact "fault_isolation_ok"
            (if i0 && i1 && i2 then 1.0 else 0.0);
          metric ~direction:Exact "chaos_invariants_ok"
            (if Chaos.passed chaos then 1.0 else 0.0);
          metric ~direction:Exact "chaos_shards_killed"
            (float_of_int chaos.Chaos.shards_killed);
          metric ~direction:Exact "chaos_shards_recovered"
            (float_of_int chaos.Chaos.shards_recovered);
          metric ~unit_:"homes/s" ~direction:Higher_better "homes_per_sec_dead0" hps0;
          metric ~unit_:"homes/s" ~direction:Higher_better "homes_per_sec_dead1" hps1;
          metric ~unit_:"homes/s" ~direction:Higher_better "homes_per_sec_dead2" hps2;
        ];
  }

(* C1: the fleet-shared verdict cache. A fixed-scale correctness pass
   first — the same synthetic fleet audited uncached, cold-cached and
   warm-cached at 1 and 2 jobs must produce byte-identical threat
   output, with deterministic hit/miss/insert counters and zero
   conflicts (the abstraction-soundness alarm). Then a scaling pass:
   homes/sec with an empty cache (cold) vs a second sweep over the same
   fleet (warm), where cross-home verdict classes are what the warm
   sweep monetizes. *)
let c1_vcache ?(smoke = false) () =
  section "C1. Fleet-shared verdict cache — cold vs warm audit throughput";
  let module Vcache = Homeguard_vcache.Vcache in
  let module Synth = Homeguard_corpus.Synth in
  let module Recorder = Homeguard_config.Recorder in
  let module Config_uri = Homeguard_config.Config_uri in
  (* the pool is small; extract each distinct app once, like a shard
     would reuse its rule files *)
  let extracted = Hashtbl.create 64 in
  let extract_pool (e : App_entry.t) =
    match Hashtbl.find_opt extracted e.App_entry.name with
    | Some a -> a
    | None ->
      let a = extract_app e in
      Hashtbl.add extracted e.App_entry.name a;
      a
  in
  (* planning facts (device matching, channel maps) are pure and
     home-invariant under offline device matching, so every home of a
     sequential sweep shares one set of tables *)
  let pcaches = Detector.create_caches () in
  let audit_home ?vc ~jobs (h : Synth.home) =
    let apps = List.map extract_pool h.Synth.apps in
    let recorder = Recorder.create () in
    List.iter
      (fun uri ->
        match Config_uri.decode uri with
        | u -> Recorder.record_uri recorder u
        | exception Config_uri.Malformed _ -> ())
      h.Synth.configs;
    let config =
      {
        Detector.offline_config with
        Detector.app_constraints = Recorder.app_constraints recorder;
      }
    in
    let config =
      match vc with None -> config | Some handle -> Vcache.configure handle config
    in
    let r = Detector.audit_all ~jobs (Detector.create ~caches:pcaches config) apps in
    List.map Threat.to_string r.Detector.threats
  in
  (* -- fixed-scale correctness pass (identical in smoke and full) -- *)
  let n_fixed = 400 in
  let fixed = Corpus.synth ~seed:13 ~n_homes:n_fixed in
  let base1 = List.map (audit_home ~jobs:1) fixed in
  let base2 = List.map (audit_home ~jobs:2) fixed in
  let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir "c1_fixed") () in
  let h = Vcache.attach st ~owner:"bench" in
  let cold1 = List.map (audit_home ~vc:h ~jobs:1) fixed in
  let cold_hits = (Vcache.counters h).Vcache.hits in
  let cold_misses = (Vcache.counters h).Vcache.misses in
  let cold_pair_hits = (Vcache.counters h).Vcache.pair_hits in
  let classes = Vcache.entries st in
  let pair_classes = Vcache.pair_entries st in
  let warm1 = List.map (audit_home ~vc:h ~jobs:1) fixed in
  let warm2 = List.map (audit_home ~vc:h ~jobs:2) fixed in
  let identical =
    base1 = base2 && base1 = cold1 && base1 = warm1 && base1 = warm2
  in
  let conflicts = (Vcache.counters h).Vcache.conflicts in
  Vcache.close_store st;
  Printf.printf
    "fixed scale: %d homes — uncached/cold/warm at jobs 1,2 %s\n\
    \  %d solve classes (cold hits=%d misses=%d)  %d pair classes (cold \
     hits=%d)  conflicts=%d\n"
    n_fixed
    (if identical then "byte-identical" else "DIVERGED")
    classes cold_hits cold_misses pair_classes cold_pair_hits conflicts;
  (* -- scaling pass: uncached vs cold vs warm homes/sec ------------- *)
  let scales = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let timing =
    List.map
      (fun n ->
        let homes = Corpus.synth ~seed:17 ~n_homes:n in
        (* capacity sized to the fleet: a warm sweep only pays off if
           the fleet's pair classes actually fit (undersizing a cache
           12x is a config error, not a cache property) *)
        let st =
          Vcache.open_store ~fsync:false ~max_entries:(max 65_536 (n * 16))
            ~dir:(fresh_dir "c1_scale") ()
        in
        let h = Vcache.attach st ~owner:"bench" in
        let sweep () =
          List.iter (fun home -> ignore (audit_home ~vc:h ~jobs:1 home)) homes
        in
        let (), uncached_ms =
          time_ms (fun () ->
              List.iter (fun home -> ignore (audit_home ~jobs:1 home)) homes)
        in
        let (), cold_ms = time_ms sweep in
        let pair_hits_cold = (Vcache.counters h).Vcache.pair_hits in
        let (), warm_ms = time_ms sweep in
        Vcache.close_store st;
        let hps ms = float_of_int n /. Float.max 0.001 ms *. 1000.0 in
        let speedup = cold_ms /. Float.max 0.001 warm_ms in
        Printf.printf
          "%7d homes: uncached %8.1fms  cold %8.1fms (%8.0f homes/s, %d \
           cross-home pair hits)\n\
          \              warm %8.1fms (%8.0f homes/s)  warm/cold speedup %.1fx\n"
          n uncached_ms cold_ms (hps cold_ms) pair_hits_cold warm_ms (hps warm_ms)
          speedup;
        (n, hps uncached_ms, hps cold_ms, hps warm_ms, speedup))
      scales
  in
  {
    Trajectory.title = "C1";
    metrics =
      Trajectory.
        [
          metric ~direction:Exact "fixed_homes" (float_of_int n_fixed);
          metric ~direction:Exact "byte_identical_all_modes"
            (if identical then 1.0 else 0.0);
          metric ~direction:Exact "verdict_classes" (float_of_int classes);
          metric ~direction:Exact "pair_classes" (float_of_int pair_classes);
          metric ~direction:Exact "cold_hits" (float_of_int cold_hits);
          metric ~direction:Exact "cold_misses" (float_of_int cold_misses);
          metric ~direction:Exact "cold_pair_hits" (float_of_int cold_pair_hits);
          metric ~direction:Exact "cache_conflicts" (float_of_int conflicts);
        ]
      @ List.concat_map
          (fun (n, uncached, cold, warm, speedup) ->
            Trajectory.
              [
                metric ~unit_:"homes/s" ~direction:Info
                  (Printf.sprintf "homes_per_sec_uncached_%d" n)
                  uncached;
                metric ~unit_:"homes/s" ~direction:Higher_better
                  (Printf.sprintf "homes_per_sec_cold_%d" n)
                  cold;
                metric ~unit_:"homes/s" ~direction:Higher_better
                  (Printf.sprintf "homes_per_sec_warm_%d" n)
                  warm;
                metric ~unit_:"x" ~direction:Higher_better
                  (Printf.sprintf "warm_speedup_%d" n)
                  speedup;
              ])
          timing;
  }

(* ------------------------------------------------------------------ R1 *)

(* Replication overhead: the same synthetic workload journaled at R=1
   (primary only) and R=2 (primary + one replica directory). The
   failure-model claim is that replication buys crash-survivable
   redundancy for a bounded constant factor on the ingest path (every
   append writes each replica in order) and approximately nothing on
   the warm audit path (audits read in-memory state, not disk). Both
   runs must also converge to byte-identical durable state — the
   replica set is a transparency mechanism, not a semantic one. *)
let r1_replication ?(smoke = false) () =
  section "R1. Replication overhead — ingest and warm audit at R=1 vs R=2";
  let module Home = Homeguard_store.Home in
  let module Synth = Homeguard_corpus.Synth in
  (* fixed scale so the exact gates (home count, replica files, state
     identity, overhead bounds) match between smoke and full runs;
     smoke only trims the timed audit repetitions *)
  let n_homes = 6 in
  let audit_iters = if smoke then 2 else 5 in
  let synth = Corpus.synth ~seed:23 ~n_homes in
  let extracted = Hashtbl.create 64 in
  let extract_pool (e : App_entry.t) =
    match Hashtbl.find_opt extracted e.App_entry.name with
    | Some a -> a
    | None ->
      let a = extract_app e in
      Hashtbl.add extracted e.App_entry.name a;
      a
  in
  let run ~replicas_n =
    let root = fresh_dir (Printf.sprintf "r1_x%d" replicas_n) in
    let homes =
      List.map
        (fun (h : Synth.home) ->
          let dir = Filename.concat root ("h_" ^ h.Synth.id) in
          let replicas =
            List.init (replicas_n - 1) (fun k ->
                Filename.concat root (Printf.sprintf "r%d/h_%s" (k + 1) h.Synth.id))
          in
          fst (Home.open_ ~fsync:false ~replicas ~dir ()))
        synth
    in
    let ops = ref 0 in
    let (), ingest_ms =
      time_ms (fun () ->
          List.iter2
            (fun home (h : Synth.home) ->
              List.iter
                (fun e ->
                  ignore (Home.install_app home (extract_pool e) : Home.install_outcome);
                  incr ops)
                h.Synth.apps;
              List.iteri
                (fun i uri ->
                  ignore (Home.deliver home ~seq:(i + 1) uri : Home.delivery);
                  incr ops)
                h.Synth.configs)
            homes synth)
    in
    (* warm the audit caches once, then time steady-state re-audits *)
    let audit_texts = List.map Home.audit_text homes in
    let (), audit_ms =
      time_ms (fun () ->
          for _ = 1 to audit_iters do
            List.iter
              (fun home -> ignore (Home.audit home : Detector.audit_result))
              homes
          done)
    in
    let digests = List.map Home.state_digest homes in
    let replica_journals =
      List.fold_left
        (fun acc home ->
          acc
          + List.length
              (List.filter
                 (fun d -> Sys.file_exists (Filename.concat d "journal"))
                 (Home.replica_dirs home)))
        0 homes
    in
    List.iter Home.close homes;
    let ingest_rate = float_of_int !ops /. Float.max 0.001 ingest_ms *. 1000.0 in
    Printf.printf
      "R=%d: %4d journaled ops in %7.1fms (%7.0f ops/s)  warm audit x%d in %7.1fms  %d replica journals\n"
      replicas_n !ops ingest_ms ingest_rate audit_iters audit_ms replica_journals;
    (ingest_rate, audit_ms, digests, audit_texts, replica_journals)
  in
  let i1, a1, d1, t1, _ = run ~replicas_n:1 in
  let i2, a2, d2, t2, rj2 = run ~replicas_n:2 in
  let overhead = i1 /. Float.max 0.001 i2 in
  let audit_ratio = a2 /. Float.max 0.001 a1 in
  let identical = d1 = d2 && t1 = t2 in
  Printf.printf
    "ingest overhead %.2fx (gate <=2x %s)  warm audit ratio %.2fx  state %s\n"
    overhead
    (if overhead <= 2.0 then "ok" else "VIOLATED")
    audit_ratio
    (if identical then "byte-identical" else "DIVERGED");
  {
    Trajectory.title = "R1";
    metrics =
      Trajectory.
        [
          metric ~direction:Exact "replication_homes" (float_of_int n_homes);
          metric ~direction:Exact "state_identical_r1_r2" (if identical then 1.0 else 0.0);
          metric ~direction:Exact "replica_journals_r2" (float_of_int rj2);
          metric ~unit_:"ops/s" ~direction:Higher_better "ingest_ops_per_sec_r1" i1;
          metric ~unit_:"ops/s" ~direction:Higher_better "ingest_ops_per_sec_r2" i2;
          metric ~unit_:"x" ~direction:Info "ingest_overhead_x" overhead;
          metric ~direction:Exact "ingest_overhead_within_2x"
            (if overhead <= 2.0 then 1.0 else 0.0);
          metric ~unit_:"x" ~direction:Info "warm_audit_ratio_r2_over_r1" audit_ratio;
          metric ~direction:Exact "warm_audit_ratio_within_1_5x"
            (if audit_ratio <= 1.5 then 1.0 else 0.0);
        ];
  }

(* ------------------------------------------------------------------ S1 *)

(* S1: one crash-safety contract for every durable surface. Three
   fixed-scale gates (identical in smoke and full runs):
   1. the seeded chaos campaign, whose schedule includes verdict-cache
      replica destruction/corruption and stale-writer probe windows,
      passes every invariant with zero stale cache bytes accepted;
   2. a deliberately reintroduced fencing bug (epoch checks disabled)
      is caught by the stale-epoch invariants, ddmin-shrunk to a
      minimal fault schedule (gate: at most 3 events), and the
      minimized repro replays deterministically — violating under the
      bug, passing with the fence enforced;
   3. frame-level cache scrub: a single flipped byte in one replica of
      the cache journal is repaired by patching exactly one frame, with
      repair I/O bounded by the damage rather than the file size, and a
      second pass writes nothing. *)
let s1_crash_safety () =
  section
    "S1. Crash-safety contract — cache-fault campaign, fence-bug shrink, \
     frame-level repair";
  let module Chaos = Homeguard_fleet.Chaos in
  let module Repro = Homeguard_fleet.Repro in
  let module Vcache = Homeguard_vcache.Vcache in
  let module Scrub = Homeguard_store.Scrub in
  (* 1 — the campaign with cache fault windows *)
  let campaign =
    Chaos.run ~config:Chaos.smoke_config ~dir:(fresh_dir "s1_campaign") ()
  in
  let cache_faults =
    List.length
      (List.filter
         (fun (s : Chaos.scheduled) ->
           match s.Chaos.ev with
           | Chaos.Cache_destroy _ | Chaos.Cache_corrupt _ -> true
           | _ -> false)
         campaign.Chaos.schedule)
  in
  Printf.printf
    "campaign: %s — %d scheduled cache fault(s), %d cache probe(s) fenced, %d \
     accepted\n"
    (if Chaos.passed campaign then "passed" else "FAILED")
    cache_faults campaign.Chaos.cache_probe_fenced
    campaign.Chaos.cache_probe_accepted;
  (* 2 — reintroduce the fence bug, catch it, shrink, replay *)
  let cfg = { Chaos.smoke_config with Chaos.homes = 6; Chaos.steps = 80 } in
  let invariant = "cache-no-stale-epoch-byte" in
  let schedule = Chaos.schedule_of_config cfg in
  let (minimal, trials), shrink_ms =
    time_ms (fun () ->
        Chaos.shrink ~config:cfg ~enforce_fence:false
          ~dir:(fresh_dir "s1_shrink") ~invariant schedule)
  in
  let repro =
    { Repro.config = cfg; schedule = minimal; invariant; fence_enforced = false }
  in
  let b1 = Repro.replay repro ~dir:(fresh_dir "s1_replay1") in
  let b2 = Repro.replay repro ~dir:(fresh_dir "s1_replay2") in
  let deterministic =
    Repro.reproduces b1 repro && Repro.reproduces b2 repro
    && b1.Chaos.ops = b2.Chaos.ops
    && List.map
         (fun (i : Chaos.invariant) -> (i.Chaos.name, i.Chaos.ok))
         b1.Chaos.invariants
       = List.map
           (fun (i : Chaos.invariant) -> (i.Chaos.name, i.Chaos.ok))
           b2.Chaos.invariants
  in
  let fixed = Repro.replay ~enforce_fence:true repro ~dir:(fresh_dir "s1_fixed") in
  Printf.printf
    "fence bug: caught and shrunk %d -> %d event(s) in %d trial(s) (%.0fms); \
     replay %s, fix %s\n"
    (List.length schedule) (List.length minimal) trials shrink_ms
    (if deterministic then "deterministic" else "DIVERGED")
    (if Chaos.passed fixed then "holds" else "REGRESSED");
  (* 3 — frame-level repair on a single flipped byte *)
  let root = fresh_dir "s1_scrub" in
  let primary = Filename.concat root "vcache"
  and replica = Filename.concat root "r1/vcache" in
  let st =
    Vcache.open_store ~fsync:false ~replicas:[ replica ] ~dir:primary ()
  in
  let h = Vcache.attach st ~owner:"s1" in
  for _ = 1 to 20 do
    match Vcache.probe_write h with
    | `Accepted -> ()
    | `Fenced | `Dropped -> failwith "s1: probe append must land"
  done;
  Vcache.close_store st;
  let victim = Filename.concat replica "cache.journal" in
  let size = (Unix.stat victim).Unix.st_size in
  let fd = Unix.openfile victim [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
  let byte = Bytes.create 1 in
  ignore (Unix.read fd byte 0 1);
  Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0x20));
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
  ignore (Unix.write fd byte 0 1);
  Unix.close fd;
  let files = [ "cache.snapshot"; "cache.journal" ] in
  let rep = Scrub.scrub_home ~fsync:false ~files [ primary; replica ] in
  let rep2 = Scrub.scrub_home ~fsync:false ~files [ primary; replica ] in
  Printf.printf
    "frame repair: %d byte(s) flipped of %d -> patched-frames=%d \
     repair-bytes=%d (%.1f%% of file); rescrub repair-bytes=%d\n"
    1 size rep.Scrub.patched_frames rep.Scrub.repair_bytes
    (100.0 *. float_of_int rep.Scrub.repair_bytes /. float_of_int size)
    rep2.Scrub.repair_bytes;
  {
    Trajectory.title = "S1";
    metrics =
      Trajectory.
        [
          metric ~direction:Exact "campaign_ok"
            (if Chaos.passed campaign then 1.0 else 0.0);
          metric ~direction:Exact "cache_faults_scheduled"
            (float_of_int cache_faults);
          metric ~direction:Exact "cache_probes_accepted"
            (float_of_int campaign.Chaos.cache_probe_accepted);
          metric ~direction:Exact "fence_bug_caught" 1.0;
          metric ~direction:Exact "min_repro_events"
            (float_of_int (List.length minimal));
          metric ~direction:Exact "min_repro_at_most_3"
            (if List.length minimal <= 3 then 1.0 else 0.0);
          metric ~direction:Info "shrink_trials" (float_of_int trials);
          metric ~unit_:"ms" ~direction:Lower_better "shrink_ms" shrink_ms;
          metric ~direction:Exact "repro_deterministic"
            (if deterministic then 1.0 else 0.0);
          metric ~direction:Exact "fence_fix_holds"
            (if Chaos.passed fixed then 1.0 else 0.0);
          metric ~direction:Exact "scrub_converged"
            (if rep.Scrub.converged then 1.0 else 0.0);
          metric ~direction:Exact "patched_frames"
            (float_of_int rep.Scrub.patched_frames);
          metric ~unit_:"B" ~direction:Info "repair_bytes"
            (float_of_int rep.Scrub.repair_bytes);
          metric ~direction:Exact "repair_bounded_by_damage"
            (if rep.Scrub.repair_bytes > 0 && rep.Scrub.repair_bytes < size
             then 1.0
             else 0.0);
          metric ~direction:Exact "rescrub_repair_bytes"
            (float_of_int rep2.Scrub.repair_bytes);
        ];
  }

(* ---------------------------------------------------------- bechamel *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (one Test.make per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let comfort_src = (Option.get (Corpus.find "ComfortTV")).App_entry.source in
  let p1, p2 = pair_of "ComfortTV" "ColdDefender" in
  let ct1, ct2 = pair_of "CatchLiveShow" "ComfortTV" in
  let ec1, ec2 = pair_of "NightCare" "BurglarFinder" in
  let situation_f = Formula.conj [ Rule.situation (snd p1); Rule.situation (snd p2) ] in
  let situation_store = Rule.store_for_rules [ p1; p2 ] in
  let demo_apps = List.map extract_app Apps_demo.all in
  let messaging = Messaging.create ~seed:9 () in
  let comfort_app = app "ComfortTV" in
  let tests =
    [
      Test.make ~name:"e6_extract_comfort_tv"
        (Staged.stage (fun () -> Extract.extract_source ~name:"ComfortTV" comfort_src));
      Test.make ~name:"e6_rule_file_json"
        (Staged.stage (fun () -> Rule_json.to_string comfort_app));
      Test.make ~name:"fig9_detect_ar"
        (Staged.stage (fun () ->
             Detector.detect_ar (Detector.create Detector.offline_config) p1 p2));
      Test.make ~name:"fig9_detect_ct_sd_lt"
        (Staged.stage (fun () ->
             Detector.detect_trigger_interference
               (Detector.create Detector.offline_config)
               ct1 ct2));
      Test.make ~name:"fig9_detect_ec_dc"
        (Staged.stage (fun () ->
             Detector.detect_condition_interference
               (Detector.create Detector.offline_config)
               ec1 ec2));
      Test.make ~name:"fig9_full_pair"
        (Staged.stage (fun () ->
             Detector.detect_pair (Detector.create Detector.offline_config) p1 p2));
      Test.make ~name:"a3_solver_dnf"
        (Staged.stage (fun () -> Solver.satisfiable situation_store situation_f));
      Test.make ~name:"a3_solver_dpll"
        (Staged.stage (fun () -> Solver.satisfiable_dpll situation_store situation_f));
      Test.make ~name:"e2_demo_detect_all"
        (Staged.stage (fun () ->
             Detector.detect_all (Detector.create Detector.offline_config) demo_apps));
      Test.make ~name:"e7_messaging_sample"
        (Staged.stage (fun () -> Messaging.send messaging Messaging.Sms "probe"));
      (let demo_threats =
         Detector.detect_all (Detector.create Detector.offline_config) demo_apps
       in
       let m = Mediator.create (Policy.create ()) demo_threats in
       (* an unmediated rule: the Allow fast path, no log growth *)
       let q =
         {
           Mediator.app = "Bystander";
           rule = "Bystander#1";
           device = "Heater";
           command = "on";
           provenance = [];
           deferrals = 0;
         }
       in
       Test.make ~name:"h1_mediator_judge" (Staged.stage (fun () -> Mediator.judge m ~at:0 q)));
    ]
  in
  let test = Test.make_grouped ~name:"homeguard" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-38s %15s\n" "benchmark" "time/run";
  Hashtbl.iter
    (fun measure_label tbl ->
      if measure_label = Measure.label Instance.monotonic_clock then
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
        |> List.iter (fun (name, ols) ->
               match Analyze.OLS.estimates ols with
               | Some (est :: _) ->
                 let pretty =
                   if est > 1_000_000.0 then Printf.sprintf "%10.3f ms" (est /. 1_000_000.0)
                   else if est > 1_000.0 then Printf.sprintf "%10.3f us" (est /. 1_000.0)
                   else Printf.sprintf "%10.0f ns" est
                 in
                 Printf.printf "%-38s %15s\n" name pretty
               | _ -> Printf.printf "%-38s %15s\n" name "n/a"))
    results

(* ----------------------------------------------------------- trajectory *)

(* The bench-trajectory key (DESIGN.md §12): dataset snapshot hash,
   run config and code version. Two files with the same key should
   carry the same deterministic counters; differing keys are reported
   as drift by [bench compare] but still compared. *)

let code_version () =
  match Sys.getenv_opt "HOMEGUARD_CODE_VERSION" with
  | Some v when v <> "" -> v
  | _ -> Homeguard_core.Homeguard.version

let snapshot_hash () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : App_entry.t) ->
      Buffer.add_string buf e.App_entry.name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf e.App_entry.source;
      Buffer.add_char buf '\000')
    Corpus.audit_apps;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let trajectory_key ~smoke ~fastpath =
  let module Budget = Homeguard_solver.Budget in
  {
    Trajectory.dataset_id =
      Printf.sprintf "corpus-audit(%d apps)" (List.length Corpus.audit_apps);
    snapshot_hash = snapshot_hash ();
    config =
      Printf.sprintf "jobs=%d;budget=%s;quota=%s%s" (Schedule.default_jobs ())
        (Budget.fingerprint Homeguard_solver.Budget.default_spec)
        (if smoke then "smoke" else "full")
        fastpath;
    code_version = code_version ();
  }

let run_trajectory ~smoke ~fastpath ~tag =
  (* explicit lets: list literals evaluate right-to-left, the printed
     section order should match the file order *)
  let p1 = p1_parallel_audit () in
  let p2 = p2_budget_overhead () in
  let fig9 = e8_fig9 ~iters:(if smoke then 10 else 50) () in
  let a3 = a3_solver_ablation ~iters:(if smoke then 100 else 500) () in
  (* F1 is fixed-scale (a small fleet, sub-second) so its exact
     counters match between smoke and full runs *)
  let f1 = f1_fleet () in
  (* C1 mixes a fixed-scale correctness pass (exact counters, shared
     between smoke and full) with a scaling pass whose larger sizes
     only run in full mode — those metrics show as Missing in smoke
     compares, which never gates *)
  let c1 = c1_vcache ~smoke () in
  (* R1's exact gates (state identity, overhead bounds) are shared
     between smoke and full; only the audit repetitions shrink in smoke *)
  let r1 = r1_replication ~smoke () in
  (* S1 is fixed-scale (smoke-sized campaigns, a ddmin run and one
     frame repair) so its exact gates match between smoke and full *)
  let s1 = s1_crash_safety () in
  let sections = [ p1; p2; fig9; a3; f1; c1; r1; s1 ] in
  let t = { Trajectory.key = trajectory_key ~smoke ~fastpath; sections } in
  let file = Printf.sprintf "BENCH_%s.json" tag in
  let oc = open_out file in
  output_string oc (Trajectory.to_string t);
  close_out oc;
  Printf.printf "\nwrote %s (%d sections: %s)\n" file (List.length sections)
    (String.concat ", " (List.map (fun s -> s.Trajectory.title) sections))

let load_trajectory file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Trajectory.of_string contents with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" file e))

let run_compare ~threshold_pct ~warn_only base_file cur_file =
  match (load_trajectory base_file, load_trajectory cur_file) with
  | Error e, _ | _, Error e ->
    prerr_endline ("bench compare: " ^ e);
    exit 2
  | Ok baseline, Ok current ->
    Printf.printf "comparing %s (baseline) vs %s (current), threshold %.0f%%\n" base_file
      cur_file threshold_pct;
    List.iter
      (fun drift -> Printf.printf "note: key drift — %s\n" drift)
      (Trajectory.key_drift ~baseline ~current);
    let deltas = Trajectory.compare ~threshold_pct ~baseline ~current in
    let fmt_v = function Some v -> Printf.sprintf "%12.3f" v | None -> "           -" in
    Printf.printf "%-8s %-28s %12s %12s %9s  %s\n" "section" "metric" "baseline" "current"
      "change" "status";
    List.iter
      (fun (d : Trajectory.delta) ->
        let status =
          match d.Trajectory.status with
          | Trajectory.Unchanged -> "ok"
          | Trajectory.Improved -> "improved"
          | Trajectory.Regressed -> "REGRESSED"
          | Trajectory.Missing -> "missing"
          | Trajectory.Added -> "added"
        in
        let change =
          match d.Trajectory.change_pct with
          | Some p -> Printf.sprintf "%+8.1f%%" p
          | None -> "        -"
        in
        Printf.printf "%-8s %-28s %12s %12s %9s  %s\n" d.Trajectory.section_title
          d.Trajectory.metric_name
          (fmt_v d.Trajectory.baseline)
          (fmt_v d.Trajectory.current)
          change status)
      deltas;
    let regressed =
      List.length (List.filter (fun d -> d.Trajectory.status = Trajectory.Regressed) deltas)
    in
    if regressed = 0 then print_endline "result: no regressions"
    else begin
      Printf.printf "result: %d metric(s) regressed beyond %.0f%%%s\n" regressed threshold_pct
        (if warn_only then " (warn-only)" else "");
      if not warn_only then exit 1
    end

(* ------------------------------------------------------------------ main *)

let run_all_sections () =
  print_endline "HomeGuard experiment harness — reproducing the paper's evaluation";
  print_endline (Corpus.stats ());
  e1_table_ii ();
  e2_exploitation ();
  e3_extraction_effectiveness ();
  e4_table_iii ();
  e5_fig8 ();
  ignore (p1_parallel_audit () : Trajectory.section);
  ignore (p2_budget_overhead () : Trajectory.section);
  e6_extraction_cost ();
  e7_messaging ();
  ignore (e8_fig9 () : Trajectory.section);
  e9_chained ();
  e10_table_v ();
  a2_ast_grep_ablation ();
  ignore (a3_solver_ablation () : Trajectory.section);
  x1_multi_platform ();
  h1_mediation ();
  j1_journal ();
  o1_overload_serving ();
  ignore (f1_fleet () : Trajectory.section);
  ignore (c1_vcache ~smoke:true () : Trajectory.section);
  ignore (r1_replication ~smoke:true () : Trajectory.section);
  ignore (s1_crash_safety () : Trajectory.section);
  bechamel_suite ();
  print_endline "\nAll experiment sections completed."

let usage () =
  print_endline "usage: bench [--json] [--tag TAG] [--smoke] [--no-bitset] [--no-memo]";
  print_endline "       bench compare BASELINE.json CURRENT.json [--threshold PCT] [--warn-only]";
  print_endline "";
  print_endline "  (no flags)    run every experiment section with human-readable output";
  print_endline "  --json        run the trajectory sections (P1, P2, FIG9, A3, F1, C1, R1, S1)";
  print_endline "                and write BENCH_<TAG>.json (default tag: local)";
  print_endline "  --smoke       reduced iteration quota, for CI smoke runs";
  print_endline "  --no-bitset   disable the small-domain bitset fast path";
  print_endline "  --no-memo     disable formula hash-consing and NNF/DNF memoization";
  print_endline "  compare       diff two bench files; exits 1 on a regression beyond";
  print_endline "                the threshold (default 25%), 2 on unreadable input"

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
    let threshold = ref 25.0 and warn_only = ref false and files = ref [] in
    let rec parse = function
      | [] -> ()
      | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t ->
          threshold := t;
          parse rest
        | None ->
          prerr_endline ("bench compare: bad threshold " ^ v);
          exit 2)
      | "--warn-only" :: rest ->
        warn_only := true;
        parse rest
      | f :: rest ->
        files := f :: !files;
        parse rest
    in
    parse rest;
    (match List.rev !files with
    | [ base; cur ] -> run_compare ~threshold_pct:!threshold ~warn_only:!warn_only base cur
    | _ ->
      usage ();
      exit 2)
  | _ :: args ->
    let json = ref false and smoke = ref false and tag = ref "local" in
    let fastpath = ref "" in
    let rec parse = function
      | [] -> ()
      | "--json" :: rest ->
        json := true;
        parse rest
      | "--smoke" :: rest ->
        smoke := true;
        parse rest
      | "--tag" :: v :: rest ->
        tag := v;
        parse rest
      | "--no-bitset" :: rest ->
        Homeguard_solver.Domain.bitset_enabled := false;
        fastpath := !fastpath ^ ";no-bitset";
        parse rest
      | "--no-memo" :: rest ->
        Homeguard_solver.Formula.memo_enabled := false;
        fastpath := !fastpath ^ ";no-memo";
        parse rest
      | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
      | arg :: _ ->
        prerr_endline ("bench: unknown argument " ^ arg);
        usage ();
        exit 2
    in
    parse args;
    if !json then run_trajectory ~smoke:!smoke ~fastpath:!fastpath ~tag:!tag
    else run_all_sections ()
  | [] -> run_all_sections ()
