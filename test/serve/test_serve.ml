(** Overload-safe serving suite: admission backpressure, deadline
    propagation down to solver budgets, structured load shedding
    (never "no threat"), cooperative cancellation of in-flight batched
    audits, and poison-app quarantine that survives journal recovery.

    Runs as its own executable (like [test/store] and [test/faults])
    because it arms the global solver fault hook, which must never leak
    into the main suite. *)

module Admission = Homeguard_serve.Admission
module Deadline = Homeguard_serve.Deadline
module Shed = Homeguard_serve.Shed
module Quarantine = Homeguard_serve.Quarantine
module Broker = Homeguard_serve.Broker
module Budget = Homeguard_solver.Budget
module Fault = Homeguard_solver.Fault
module Detector = Homeguard_detector.Detector
module Schedule = Homeguard_detector.Schedule
module Home = Homeguard_store.Home
module Install_flow = Homeguard_frontend.Install_flow
module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test name f = Alcotest.test_case name `Quick f
let check_bool m = Alcotest.(check bool) m
let check_int m = Alcotest.(check int) m

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hg_serve_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let corpus_source name =
  match
    List.find_opt
      (fun e -> e.Homeguard_corpus.App_entry.name = name)
      Homeguard_corpus.Corpus.all
  with
  | Some e -> e.Homeguard_corpus.App_entry.source
  | None -> Alcotest.failf "no corpus app %s" name

(* A manual clock: tests move time by hand, so deadline behaviour is
   deterministic and instantaneous. *)
let manual_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun ms -> now := !now +. ms)

(* -- admission ---------------------------------------------------------------- *)

let admission_backpressure =
  test "a full queue refuses with a positive retry hint; release frees it" (fun () ->
      let a = Admission.create ~max_per_home:2 ~max_global:8 ~est_service_ms:40 () in
      let t1 =
        match Admission.try_admit a ~home:"h" Admission.Interactive with
        | Ok t -> t
        | Error _ -> Alcotest.fail "first admit refused"
      in
      let _t2 =
        match Admission.try_admit a ~home:"h" Admission.Interactive with
        | Ok t -> t
        | Error _ -> Alcotest.fail "second admit refused"
      in
      (match Admission.try_admit a ~home:"h" Admission.Interactive with
      | Ok _ -> Alcotest.fail "third admit should hit the per-home bound"
      | Error retry_after_ms ->
        check_bool "positive retry hint" true (retry_after_ms > 0));
      (* a different home still has room: the bound is per-home *)
      (match Admission.try_admit a ~home:"other" Admission.Interactive with
      | Ok t -> Admission.release a t
      | Error _ -> Alcotest.fail "other home should be admitted");
      Admission.release a t1;
      (match Admission.try_admit a ~home:"h" Admission.Interactive with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "release should free a slot");
      (* double release is idempotent *)
      Admission.release a t1;
      Admission.release a t1;
      check_int "in flight" 2 (Admission.in_flight a))

let admission_interactive_reserve =
  test "background work cannot occupy the interactive reserve" (fun () ->
      let a =
        Admission.create ~max_per_home:10 ~max_global:4 ~interactive_reserve:2 ()
      in
      let admit p = Admission.try_admit a ~home:"h" p in
      check_bool "bg 1" true (Result.is_ok (admit Admission.Background));
      check_bool "bg 2" true (Result.is_ok (admit Admission.Background));
      check_bool "bg 3 refused at max_global - reserve" true
        (Result.is_error (admit Admission.Background));
      check_bool "interactive still admitted" true
        (Result.is_ok (admit Admission.Interactive));
      check_bool "interactive up to max_global" true
        (Result.is_ok (admit Admission.Interactive));
      check_bool "then even interactive is refused" true
        (Result.is_error (admit Admission.Interactive)))

(* -- deadlines ---------------------------------------------------------------- *)

let deadline_budget_derivation =
  test "remaining deadline becomes the budget timeout, clamped by the base" (fun () ->
      let clock, advance = manual_clock () in
      let dl = Deadline.make ~clock ~timeout_ms:500.0 () in
      let base = { Budget.default_spec with Budget.timeout_ms = Some 10_000.0 } in
      (match (Deadline.budget_spec ~base dl).Budget.timeout_ms with
      | Some t -> check_bool "full allowance" true (t = 500.0)
      | None -> Alcotest.fail "expected a timeout");
      advance 400.0;
      (match (Deadline.budget_spec ~base dl).Budget.timeout_ms with
      | Some t -> check_bool "queueing ate 400 ms" true (t = 100.0)
      | None -> Alcotest.fail "expected a timeout");
      (* a base tighter than the deadline wins: propagation only ever
         shrinks budgets *)
      let tight = { Budget.default_spec with Budget.timeout_ms = Some 50.0 } in
      (match (Deadline.budget_spec ~base:tight dl).Budget.timeout_ms with
      | Some t -> check_bool "base caps the derived timeout" true (t = 50.0)
      | None -> Alcotest.fail "expected a timeout");
      check_bool "not yet expired" false (Deadline.expired dl);
      advance 100.0;
      check_bool "expired exactly at the deadline" true (Deadline.expired dl);
      check_bool "remaining never negative" true (Deadline.remaining_ms dl = 0.0);
      (match (Deadline.budget_spec ~base dl).Budget.timeout_ms with
      | Some t -> check_bool "expired allowance is zero" true (t = 0.0)
      | None -> Alcotest.fail "expected a timeout");
      check_bool "cancel probe fires" true (Deadline.cancel dl ());
      (* unbounded deadlines change nothing *)
      let unb = Deadline.make ~clock () in
      check_bool "unbounded" true (Deadline.unbounded unb);
      check_bool "base passes through" true (Deadline.budget_spec ~base unb = base))

(* -- cancellation ------------------------------------------------------------- *)

let map_batches_cancellation =
  test "map_batches stops claiming batches once cancel fires" (fun () ->
      let items = Array.init 64 Fun.id in
      let seen = ref 0 in
      let cancel () = !seen >= 8 in
      let results =
        Schedule.map_batches ~cancel ~jobs:1
          (fun batch ->
            seen := !seen + Array.length batch;
            Array.length batch)
          items
      in
      let ran = Array.to_list results |> List.filter_map Fun.id in
      let skipped = Array.to_list results |> List.filter (( = ) None) |> List.length in
      check_bool "some batches ran" true (ran <> []);
      check_bool "some batches were skipped" true (skipped > 0);
      check_bool "work stopped early" true (!seen < 64))

let audit_cancellation_counts_shed =
  test "a cancelled batched audit reports shed pairs, never a clean bill" (fun () ->
      let apps =
        List.map
          (fun n -> (Extract.extract_source ~name:n (corpus_source n)).Extract.app)
          [ "AtticFanController"; "BathroomFanTimer"; "SmokeVent"; "AutoHumidify" ]
      in
      let ctx = Detector.create Detector.offline_config in
      let pairs = Detector.candidate_pairs ctx apps in
      check_bool "plan is non-trivial" true (Array.length pairs >= 2);
      (* cancel immediately: everything is shed *)
      let all_shed =
        Detector.audit_pairs ~cancel:(fun () -> true) ctx pairs
      in
      check_int "no pair audited" (Array.length pairs) all_shed.Detector.shed;
      check_bool "no threats claimed" true (all_shed.Detector.threats = []);
      (* a full audit through a pair cache that always misses sheds the
         same exact count: the planned pairs, not the app pairs' cross
         products *)
      let missing = { Detector.pair_lookup = (fun _ -> None); pair_store = (fun _ _ -> ()) } in
      let cached =
        Detector.audit_all ~cancel:(fun () -> true)
          (Detector.create { Detector.offline_config with Detector.pair_cache = Some missing })
          apps
      in
      check_int "cached audit sheds exactly the plan" (Array.length pairs) cached.Detector.shed;
      check_bool "no threats claimed by the cached audit" true (cached.Detector.threats = []);
      (* cancel after the first pair: partial results plus a shed count *)
      let count = ref 0 in
      let ctx2 = Detector.create Detector.offline_config in
      let partial =
        Detector.audit_pairs
          ~cancel:(fun () ->
            incr count;
            !count > 1)
          ctx2 pairs
      in
      check_bool "remainder shed" true (partial.Detector.shed > 0);
      check_bool "shed + audited covers the plan" true
        (partial.Detector.shed <= Array.length pairs))

(* -- quarantine policy -------------------------------------------------------- *)

let quarantine_policy =
  test "K consecutive failures trip quarantine; successes reset the streak"
    (fun () ->
      let q = Quarantine.create ~threshold:3 () in
      check_bool "1st" true (Quarantine.note_failure q ~app:"P" ~reason:"r1" = `Counted 1);
      check_bool "2nd" true (Quarantine.note_failure q ~app:"P" ~reason:"r2" = `Counted 2);
      (* a success in between resets the streak *)
      Quarantine.note_success q "P";
      check_bool "reset" true (Quarantine.note_failure q ~app:"P" ~reason:"r3" = `Counted 1);
      check_bool "2nd again" true
        (Quarantine.note_failure q ~app:"P" ~reason:"r4" = `Counted 2);
      (match Quarantine.note_failure q ~app:"P" ~reason:"crash" with
      | `Quarantined why -> check_bool "reason mentions the last failure" true
          (String.length why > 0)
      | `Counted _ -> Alcotest.fail "3rd consecutive failure must quarantine");
      check_bool "sticky" true
        (match Quarantine.note_failure q ~app:"P" ~reason:"again" with
        | `Quarantined _ -> true
        | `Counted _ -> false);
      check_bool "is_quarantined" true (Quarantine.is_quarantined q "P");
      check_bool "clear lifts" true (Quarantine.clear q "P");
      check_bool "cleared" false (Quarantine.is_quarantined q "P");
      check_int "history forgotten" 0 (Quarantine.failure_count q "P"))

(* -- broker end-to-end -------------------------------------------------------- *)

let broker_backpressure_and_shed =
  test "queued jobs hit the bound with busy; expired jobs drain as Degraded"
    (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~fsync:false ~dir () in
      let clock, advance = manual_clock () in
      let config =
        {
          Broker.default_config with
          Broker.max_queue = 2;
          Broker.deadline_ms = Some 100.0;
          Broker.clock = clock;
        }
      in
      let broker = Broker.create ~config () in
      Broker.add_home broker ~id:"home" home;
      let j1 =
        match Broker.submit_audit broker ~home:"home" () with
        | Ok id -> id
        | Error _ -> Alcotest.fail "first submit refused"
      in
      (match Broker.submit_audit broker ~home:"home" () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "second submit refused");
      (* the per-home bound is reached: explicit backpressure *)
      (match Broker.submit_audit broker ~home:"home" () with
      | Ok _ -> Alcotest.fail "third submit should be refused"
      | Error retry_after_ms -> check_bool "retry hint" true (retry_after_ms > 0));
      (* let both deadlines lapse while the jobs sit queued *)
      advance 200.0;
      let outcomes = Broker.drain broker in
      check_int "both jobs replied to" 2 (List.length outcomes);
      List.iter
        (function
          | Broker.Shed_job { reason = Shed.Deadline_expired; _ } -> ()
          | Broker.Shed_job { reason; _ } ->
            Alcotest.failf "wrong shed reason: %s" (Shed.describe_reason reason)
          | Broker.Audited _ -> Alcotest.fail "expired job must shed, not audit")
        outcomes;
      check_bool "first job was j1" true
        (match outcomes with Broker.Shed_job { id; _ } :: _ -> id = j1 | _ -> false);
      (* tickets were released: the queue accepts work again *)
      (match Broker.submit_audit broker ~home:"home" () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "queue should be free after drain");
      ignore (Broker.drain broker);
      Home.close home)

let broker_quarantine_end_to_end =
  test "K injected crashes quarantine the app, exclude it, survive recovery"
    (fun () ->
      let dir = fresh_dir () in
      let src_attic = corpus_source "AtticFanController" in
      let src_fan = corpus_source "BathroomFanTimer" in
      let home, _ = Home.open_ ~fsync:false ~dir () in
      let config = { Broker.default_config with Broker.quarantine_after = 2 } in
      let broker = Broker.create ~config () in
      Broker.add_home broker ~id:"home" home;
      (* a healthy install first *)
      (match Broker.install broker ~home:"home" ~name:"AtticFanController" ~source:src_attic () with
      | Broker.Proposed _ -> Home.decide home Install_flow.Keep
      | _ -> Alcotest.fail "healthy install refused");
      (* arm crash injection on every solve: the proposed app's pair
         detections crash, and every crashed pair counts one failure
         against both of its apps — a single install can trip the
         threshold when several pairs crash *)
      Fault.arm ~rate_per_thousand:1000 Fault.Raise;
      let saw_failures = ref false in
      (try
         for _ = 1 to 5 do
           match Broker.install broker ~home:"home" ~name:"BathroomFanTimer" ~source:src_fan () with
           | Broker.Proposed { report; _ } ->
             if report.Install_flow.audit.Detector.failures <> [] then
               saw_failures := true;
             Home.decide home Install_flow.Reject
           | Broker.Quarantined_app _ -> raise Exit
           | Broker.Busy _ | Broker.Install_failed _ ->
             Alcotest.fail "unexpected reply under crash injection"
         done
       with Exit -> ());
      Fault.disarm ();
      check_bool "crashed pairs were reported, not hidden" true !saw_failures;
      check_bool "quarantined after K crashed audits" true
        (Home.is_quarantined home "BathroomFanTimer");
      (* a quarantined app is refused before extraction *)
      (match Broker.install broker ~home:"home" ~name:"BathroomFanTimer" ~source:src_fan () with
      | Broker.Quarantined_app { app; _ } ->
        check_bool "refused by name" true (app = "BathroomFanTimer")
      | _ -> Alcotest.fail "quarantined app must be refused");
      Home.close home;
      (* recovery: the journaled quarantine survives a restart *)
      let home2, _ = Home.open_ ~fsync:false ~dir () in
      check_bool "quarantine recovered from the journal" true
        (Home.is_quarantined home2 "BathroomFanTimer");
      let broker2 = Broker.create ~config () in
      Broker.add_home broker2 ~id:"home" home2;
      (match Broker.install broker2 ~home:"home" ~name:"BathroomFanTimer" ~source:src_fan () with
      | Broker.Quarantined_app _ -> ()
      | _ -> Alcotest.fail "recovered broker must still refuse");
      (* compaction re-emits the quarantine into the snapshot *)
      Home.compact home2;
      Home.close home2;
      let home3, _ = Home.open_ ~fsync:false ~dir () in
      check_bool "quarantine survives compaction" true
        (Home.is_quarantined home3 "BathroomFanTimer");
      (* clearing is journaled too *)
      check_bool "clear" true (Home.unquarantine home3 "BathroomFanTimer");
      Home.close home3;
      let home4, _ = Home.open_ ~fsync:false ~dir () in
      check_bool "clearance survives restart" false
        (Home.is_quarantined home4 "BathroomFanTimer");
      Home.close home4)

let quarantined_app_excluded_from_audit =
  test "a quarantined app's pairs vanish from batch audits" (fun () ->
      Fault.disarm ();
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~fsync:false ~dir () in
      let install name =
        let src = corpus_source name in
        ignore (Home.propose home (Extract.extract_source ~name src).Extract.app);
        Home.decide home Install_flow.Keep
      in
      install "AtticFanController";
      install "BathroomFanTimer";
      let before = Home.audit home in
      check_bool "the pair conflicts before quarantine" true
        (before.Detector.threats <> []);
      Home.quarantine home ~app:"BathroomFanTimer" ~reason:"test";
      let after = Home.audit home in
      check_bool "its threats vanish with it" true (after.Detector.threats = []);
      check_bool "still installed" true
        (List.exists
           (fun (a : Rule.smartapp) -> a.Rule.name = "BathroomFanTimer")
           (Home.installed_apps home));
      (* audit_text carries the quarantine line: the recovery invariant
         covers it *)
      check_bool "audit_text mentions quarantine" true
        (contains ~sub:"quarantined: [BathroomFanTimer" (Home.audit_text home));
      Home.close home)

(* -- replay determinism -------------------------------------------------------- *)

let replay_determinism =
  test "seeded workloads recover byte-identically, even after damage" (fun () ->
      Fault.disarm ();
      let rng = Random.State.make [| 0xd3a1; 7 |] in
      let names =
        [ "AtticFanController"; "BathroomFanTimer"; "BonVoyage"; "SleepyTime" ]
      in
      let pick () = List.nth names (Random.State.int rng (List.length names)) in
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~fsync:false ~dir () in
      let seq = ref 0 in
      for _ = 1 to 40 do
        match Random.State.int rng 4 with
        | 0 ->
          let name = pick () in
          if not (Home.is_quarantined home name) then
            ignore
              (Home.install_app home
                 (Extract.extract_source ~name (corpus_source name)).Extract.app)
        | 1 ->
          incr seq;
          ignore
            (Home.deliver home ~seq:!seq
               (Printf.sprintf "http://my.com/appname:%s/threshold1:%d/" (pick ())
                  (Random.State.int rng 100)))
        | 2 -> Home.quarantine home ~app:(pick ()) ~reason:"replay-test"
        | _ -> ignore (Home.unquarantine home (pick ()))
      done;
      Home.close home;
      let recover_text () =
        let h, _ = Home.open_ ~fsync:false ~dir () in
        let txt = Home.state_text h in
        Home.close h;
        txt
      in
      let t1 = recover_text () in
      check_bool "recovered something" true (String.length t1 > 0);
      check_bool "two clean recoveries are byte-identical" true
        (t1 = recover_text ());
      (* flip one journal byte mid-file: the repairing recovery
         quarantines or truncates, and the repaired journal must again
         replay deterministically *)
      let jpath = Filename.concat dir "journal" in
      let ic = open_in_bin jpath in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string raw in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
      let oc = open_out_bin jpath in
      output_bytes oc b;
      close_out oc;
      let d1 = recover_text () in
      check_bool "two post-damage recoveries are byte-identical" true
        (d1 = recover_text ()))

let admission_retry_hint_scales =
  test "refusal hints scale with the depth of the queue ahead" (fun () ->
      let hint bound =
        let a =
          Admission.create ~max_per_home:bound ~max_global:64 ~est_service_ms:40 ()
        in
        for _ = 1 to bound do
          match Admission.try_admit a ~home:"h" Admission.Interactive with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "should admit up to the bound"
        done;
        match Admission.try_admit a ~home:"h" Admission.Interactive with
        | Error ms -> ms
        | Ok _ -> Alcotest.fail "bound should refuse"
      in
      check_int "per-home depth 2" 80 (hint 2);
      check_int "per-home depth 4 pushes further out" 160 (hint 4);
      (* global refusals scale with the global backlog, not a constant *)
      let a =
        Admission.create ~max_per_home:8 ~max_global:4 ~interactive_reserve:2
          ~est_service_ms:50 ()
      in
      for i = 1 to 4 do
        match
          Admission.try_admit a ~home:(string_of_int i) Admission.Interactive
        with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "distinct homes should fill the global pool"
      done;
      match Admission.try_admit a ~home:"late" Admission.Interactive with
      | Error ms -> check_int "global depth 4" 200 ms
      | Ok _ -> Alcotest.fail "global bound should refuse")

let () =
  Alcotest.run "homeguard-serve"
    [
      ( "admission",
        [
          admission_backpressure;
          admission_interactive_reserve;
          admission_retry_hint_scales;
        ] );
      ("replay", [ replay_determinism ]);
      ("deadline", [ deadline_budget_derivation ]);
      ("cancel", [ map_batches_cancellation; audit_cancellation_counts_shed ]);
      ("quarantine-policy", [ quarantine_policy ]);
      ( "broker",
        [
          broker_backpressure_and_shed;
          broker_quarantine_end_to_end;
          quarantined_app_excluded_from_audit;
        ] );
    ]
