(** Scheduler tests: batching invariants, the Mutex/Condition work
    queue fan-out, plan soundness and parallel-vs-sequential detection
    determinism. *)

module Rule = Homeguard_rules.Rule
module Detector = Homeguard_detector.Detector
module Schedule = Homeguard_detector.Schedule
module Threat = Homeguard_detector.Threat
open Helpers

let demo_apps =
  lazy
    (List.map
       (fun (e : Homeguard_corpus.App_entry.t) ->
         extract ~name:e.Homeguard_corpus.App_entry.name e.Homeguard_corpus.App_entry.source)
       Homeguard_corpus.Apps_demo.all)

let batches_partition =
  test "batches: concatenation restores the input, in order" (fun () ->
      List.iter
        (fun (jobs, n) ->
          let items = Array.init n (fun i -> i) in
          let bs = Schedule.batches ~jobs items in
          let flat = Array.concat (Array.to_list bs) in
          check_bool
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            true
            (flat = items && Array.for_all (fun b -> Array.length b > 0) bs))
        [ (1, 0); (1, 1); (1, 17); (3, 17); (4, 4); (4, 100); (16, 5) ])

let map_batches_matches_sequential =
  test "map_batches: parallel result equals sequential map" (fun () ->
      let items = Array.init 257 (fun i -> i) in
      let f batch = Array.fold_left (fun acc x -> acc + (x * x)) 0 batch in
      let total jobs =
        Array.fold_left
          (fun acc -> function Some x -> acc + x | None -> acc)
          0
          (Schedule.map_batches ~jobs f items)
      in
      let expected = Array.fold_left (fun a x -> a + (x * x)) 0 items in
      check_int "sequential sum of squares" expected (total 1);
      check_int "parallel sum of squares" expected (total 4))

let map_batches_uses_every_item =
  test "map_batches: every item processed exactly once under contention" (fun () ->
      let items = Array.init 1000 (fun i -> i) in
      let results = Schedule.map_batches ~jobs:8 Array.to_list items in
      let flat =
        List.concat (List.filter_map Fun.id (Array.to_list results))
      in
      check_int "item count" 1000 (List.length flat);
      check_bool "order preserved" true (flat = Array.to_list items))

let plan_is_sound =
  test "plan: pre-filters never drop a threat-bearing pair" (fun () ->
      let apps = Lazy.force demo_apps in
      let c = Detector.create Detector.offline_config in
      let tagged =
        List.concat_map (fun app -> List.map (fun r -> (app, r)) app.Rule.rules) apps
      in
      let rec pairs = function
        | [] -> []
        | p :: rest -> List.map (fun q -> (p, q)) rest @ pairs rest
      in
      List.iter
        (fun (((app1, _) as p1), ((app2, _) as p2)) ->
          if app1.Rule.name <> app2.Rule.name then
            let threats = Detector.detect_pair c p1 p2 in
            if threats <> [] then
              check_bool
                (Printf.sprintf "%s vs %s is a candidate" app1.Rule.name app2.Rule.name)
                true
                (Detector.pair_candidate c p1 p2))
        (pairs tagged))

let detect_all_jobs_deterministic =
  test "detect_all: --jobs 1 and --jobs 4 produce the identical threat list" (fun () ->
      let apps = Lazy.force demo_apps in
      let run jobs =
        let c = Detector.create Detector.offline_config in
        let threats = Detector.detect_all ~jobs c apps in
        (List.map Threat.to_string threats, c.Detector.solver_calls)
      in
      let seq, seq_calls = run 1 in
      let par, par_calls = run 4 in
      check_bool "non-trivial workload" true (seq <> []);
      check_bool "identical, identically ordered threats" true (seq = par);
      check_int "merged solver-call count matches sequential" seq_calls par_calls)

let detect_all_matches_unplanned_pairwise =
  test "detect_all: planned output equals exhaustive pairwise detection" (fun () ->
      let apps = Lazy.force demo_apps in
      let c = Detector.create Detector.offline_config in
      let planned = List.map Threat.to_string (Detector.detect_all c apps) in
      let tagged =
        List.concat_map (fun app -> List.map (fun r -> (app, r)) app.Rule.rules) apps
      in
      let rec pairs = function
        | [] -> []
        | p :: rest -> List.map (fun q -> (p, q)) rest @ pairs rest
      in
      let c' = Detector.create Detector.offline_config in
      let exhaustive =
        List.concat_map
          (fun (((app1, _) as p1), ((app2, _) as p2)) ->
            if app1.Rule.name = app2.Rule.name then []
            else Detector.detect_pair c' p1 p2)
          (pairs tagged)
        |> List.map Threat.to_string
      in
      check_bool "same threats" true (planned = exhaustive))

let detect_new_app_jobs_deterministic =
  test "detect_new_app: parallel install-time check matches sequential" (fun () ->
      let installed = [ extract_corpus "ComfortTV"; extract_corpus "CatchLiveShow" ] in
      let newcomer = extract_corpus "ColdDefender" in
      let run jobs =
        let c = Detector.create Detector.offline_config in
        List.map Threat.to_string
          (Detector.audit_new_app ~jobs c installed newcomer).Detector.threats
      in
      let seq = run 1 in
      check_bool "finds the Fig 3 race" true (seq <> []);
      check_bool "jobs=3 identical" true (seq = run 3))

let audit_all_jobs_deterministic =
  test "audit_all: threats, undecided and failures identical across job counts" (fun () ->
      let apps = Lazy.force demo_apps in
      let run jobs =
        let c = Detector.create Detector.offline_config in
        let r = Detector.audit_all ~jobs c apps in
        ( List.map Threat.to_string r.Detector.threats,
          r.Detector.undecided,
          r.Detector.failures,
          r.Detector.retried )
      in
      let ((threats1, undecided1, failures1, retried1) as seq) = run 1 in
      check_bool "clean run: no undecided pairs" true (undecided1 = 0);
      check_bool "clean run: no failures" true (failures1 = [] && retried1 = 0);
      check_bool "non-trivial workload" true (threats1 <> []);
      check_bool "jobs=4 identical audit" true (seq = run 4))

let capture_isolates_exceptions =
  test "Schedule.capture: a raising item becomes a structured Error" (fun () ->
      (match Schedule.capture (fun () -> 42) with
      | Ok n -> check_int "value passes through" 42 n
      | Error _ -> Alcotest.fail "no error expected");
      match Schedule.capture (fun () -> failwith "boom") with
      | Ok _ -> Alcotest.fail "expected Error"
      | Error info ->
        check_bool "exception recorded" true
          (String.length info.Schedule.exn > 0
          && String.length ("x" ^ info.Schedule.backtrace) > 0))

let default_budgets_leave_corpus_decided =
  test "corpus audit under default budgets reports zero undecided pairs" (fun () ->
      let apps =
        List.map
          (fun (e : Homeguard_corpus.App_entry.t) ->
            extract ~name:e.Homeguard_corpus.App_entry.name e.Homeguard_corpus.App_entry.source)
          Homeguard_corpus.Corpus.audit_apps
      in
      let c = Detector.create Detector.offline_config in
      let r = Detector.audit_all ~jobs:1 c apps in
      check_bool "zero undecided" true (r.Detector.undecided = 0);
      check_bool "zero undecided solves" true (c.Detector.undecided_solves = 0);
      check_bool "zero failures" true (r.Detector.failures = []);
      check_bool "threats found" true (r.Detector.threats <> []))

let merged_ctx_counts =
  test "parallel run merges per-domain solver calls into the caller's ctx" (fun () ->
      let apps = Lazy.force demo_apps in
      let c = Detector.create Detector.offline_config in
      ignore (Detector.detect_all ~jobs:4 c apps);
      check_bool "solver calls visible after merge" true (c.Detector.solver_calls > 0);
      check_bool "overlap cache merged" true (Hashtbl.length c.Detector.overlap_cache > 0))

let tests =
  [
    batches_partition;
    map_batches_matches_sequential;
    map_batches_uses_every_item;
    plan_is_sound;
    detect_all_jobs_deterministic;
    detect_all_matches_unplanned_pairwise;
    detect_new_app_jobs_deterministic;
    audit_all_jobs_deterministic;
    capture_isolates_exceptions;
    default_budgets_leave_corpus_decided;
    merged_ctx_counts;
  ]
