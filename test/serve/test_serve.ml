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
      (match (Deadline.budget_spec ~base dl).Budget.timeout_ms with
      | Some t -> check_bool "expired allowance is zero" true (t = 0.0)
      | None -> Alcotest.fail "expected a timeout");
      check_bool "cancel probe fires" true (Deadline.cancel dl ());
      (* unbounded deadlines change nothing *)
      let unb = Deadline.make ~clock () in
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
      (* a full audit through an empty pair index sheds the same exact
         count: the planned pairs, not the app pairs' cross products *)
      let cached =
        Detector.audit_all ~cancel:(fun () -> true) ~index:(Detector.create_pair_index ())
          (Detector.create Detector.offline_config)
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
      (* the home, not this counter, records the quarantine *)
      check_bool "a trip starts the streak over" true
        (Quarantine.note_failure q ~app:"P" ~reason:"again" = `Counted 1))

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
      (* clearing through the broker lifts the home's quarantine and
         starts the app's failure streak over *)
      let broker4 = Broker.create ~config () in
      Broker.add_home broker4 ~id:"home" home4;
      let fails_tripping () =
        match Broker.install broker4 ~home:"home" ~name:"Broken" ~source:"definition(" () with
        | Broker.Install_failed { quarantined; _ } -> quarantined
        | _ -> Alcotest.fail "a source that does not parse must fail"
      in
      check_bool "1st failure counts" false (fails_tripping ());
      check_bool "2nd failure trips" true (fails_tripping ());
      check_bool "quarantined in the home" true (Home.is_quarantined home4 "Broken");
      check_bool "clear_quarantine lifts it" true
        (Broker.clear_quarantine broker4 ~home:"home" "Broken");
      check_bool "no longer quarantined in the home" false (Home.is_quarantined home4 "Broken");
      check_bool "next failure counts from 1" false (fails_tripping ());
      check_bool "clearing an app the home has not quarantined" false
        (Broker.clear_quarantine broker4 ~home:"home" "Broken");
      check_bool "the streak starts over again" false (fails_tripping ());
      check_bool "and trips at K" true (fails_tripping ());
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

(* -- one shared app per source ------------------------------------------------ *)

(* The app a successful install proposes. *)
let proposed_app broker ~home ~name ~source =
  match Broker.install broker ~home ~name ~source () with
  | Broker.Proposed { report; _ } -> report.Install_flow.app
  | _ -> Alcotest.failf "install of %s refused" name

let fresh_extract ~name source = (Extract.extract_source ~name source).Extract.app

(* A broker over [n] fresh homes "h1".."hn"; each install below is
   rejected again, so the homes stay empty. *)
let sharing_broker ?config n =
  let broker = Broker.create ?config () in
  for i = 1 to n do
    let home, _ = Home.open_ ~fsync:false ~dir:(fresh_dir ()) () in
    Broker.add_home broker ~id:(Printf.sprintf "h%d" i) home
  done;
  broker

let propose_and_reject broker ~home ~name ~source =
  let app = proposed_app broker ~home ~name ~source in
  Home.decide (Broker.home broker home) Install_flow.Reject;
  app

let close_all broker = List.iter (fun (_, h) -> Home.close h) (Broker.homes broker)

let shared_same_source =
  test "the same name and source give one app, equal to a fresh extraction" (fun () ->
      let broker = sharing_broker 2 in
      let source = corpus_source "ComfortTV" in
      let name = "ShareSameTV" in
      let a1 = propose_and_reject broker ~home:"h1" ~name ~source in
      (* a copy of the bytes, as a second read of the same file gives *)
      let copy = String.sub source 0 (String.length source) in
      let a2 = propose_and_reject broker ~home:"h2" ~name ~source:copy in
      check_bool "physically equal across installs and homes" true (a1 == a2);
      check_bool "equal to a fresh extraction" true (a1 = fresh_extract ~name source);
      close_all broker)

let shared_other_name =
  test "the same source under another name gives a distinct app" (fun () ->
      let broker = sharing_broker 1 in
      let source = corpus_source "ComfortTV" in
      let a = propose_and_reject broker ~home:"h1" ~name:"ShareNameA" ~source in
      let b = propose_and_reject broker ~home:"h1" ~name:"ShareNameB" ~source in
      check_bool "distinct" true (a != b && a <> b);
      check_bool "named as installed" true (b.Rule.name = "ShareNameB");
      check_bool "equal to its fresh extraction" true
        (b = fresh_extract ~name:"ShareNameB" source);
      close_all broker)

let shared_never_failures =
  test "a failing source is never interned: quarantine trips on the K-th attempt"
    (fun () ->
      let config = { Broker.default_config with Broker.quarantine_after = 3 } in
      let broker = sharing_broker ~config 1 in
      let name = "SharePoison" in
      let good = corpus_source "ComfortTV" in
      (* a good version of the name is held; the broken one must not be
         served from it *)
      ignore (propose_and_reject broker ~home:"h1" ~name ~source:good);
      let bad = String.sub good 0 (String.length good / 2) in
      let tripped =
        List.init 3 (fun _ ->
            match Broker.install broker ~home:"h1" ~name ~source:bad () with
            | Broker.Install_failed { quarantined; error; _ } ->
              check_bool "extraction failed" true (contains ~sub:"extraction failed" error);
              quarantined
            | _ -> Alcotest.fail "a broken source must fail every attempt")
      in
      check_bool "counted twice, tripped on the third" true (tripped = [ false; false; true ]);
      close_all broker)

let shared_with_replay =
  test "a kept app's replayed value is the live one after close and reopen" (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~fsync:false ~dir () in
      let broker = Broker.create () in
      Broker.add_home broker ~id:"home" home;
      let name = "ShareReplayTV" in
      let live = proposed_app broker ~home:"home" ~name ~source:(corpus_source "ComfortTV") in
      Home.decide home Install_flow.Keep;
      Home.close home;
      let home2, _ = Home.open_ ~fsync:false ~dir () in
      let named (a : Rule.smartapp) = a.Rule.name = name in
      (match List.find_opt named (Home.installed_apps home2) with
      | Some replayed -> check_bool "physically the live app" true (replayed == live)
      | None -> Alcotest.fail "kept app not recovered");
      Home.close home2)

(* Two sessions on one state dir, each installing a rule file and
   keeping it, as two [serve] runs of [install FILE] then [keep] do:
   the live home and its recovery must hold the same apps. *)
let keep_installed_app =
  test "keeping an installed app again installs it as recovery does" (fun () ->
      let dir = fresh_dir () in
      let name = "AtticFanController" in
      let names home = List.map (fun (a : Rule.smartapp) -> a.Rule.name) (Home.installed_apps home) in
      let files home = List.map Homeguard_rules.Rule_json.to_string (Home.installed_apps home) in
      let session source =
        let home, _ = Home.open_ ~fsync:false ~dir () in
        let broker = Broker.create () in
        Broker.add_home broker ~id:"home" home;
        ignore (proposed_app broker ~home:"home" ~name ~source);
        Home.decide home Install_flow.Keep;
        let live = (names home, files home) in
        Home.close home;
        let recovered, _ = Home.open_ ~fsync:false ~dir () in
        let replayed = (names recovered, files recovered) in
        Home.close recovered;
        (live, replayed)
      in
      let same_file = In_channel.with_open_bin "fixtures/AtticFanController.groovy" In_channel.input_all in
      List.iter
        (fun (label, source) ->
          let (live_names, live_files), replayed = session source in
          Alcotest.(check (list string)) (label ^ ": one copy") [ name ] live_names;
          check_bool (label ^ ": recovery agrees") true ((live_names, live_files) = replayed);
          check_bool (label ^ ": the kept rule file") true
            (live_files = [ Homeguard_rules.Rule_json.to_string (fresh_extract ~name source) ]))
        [
          ("first session", same_file);
          ("the same file again", same_file);
          ("another rule file", corpus_source "ComfortTV");
        ])

let shared_changed_app =
  test "a changed app under a reused name replaces the entry" (fun () ->
      let broker = sharing_broker 1 in
      let name = "ShareChanged" in
      let v1 = corpus_source "ComfortTV" and v2 = corpus_source "ColdDefender" in
      let a1 = propose_and_reject broker ~home:"h1" ~name ~source:v1 in
      let a2 = propose_and_reject broker ~home:"h1" ~name ~source:v2 in
      check_bool "the new version, not the old" true (a2 = fresh_extract ~name v2 && a2 <> a1);
      check_bool "the new version is held" true
        (propose_and_reject broker ~home:"h1" ~name ~source:v2 == a2);
      let a3 = propose_and_reject broker ~home:"h1" ~name ~source:v1 in
      check_bool "the old version again, extracted afresh" true
        (a3 = fresh_extract ~name v1 && a3 = a1);
      close_all broker)

let broker_home_registry =
  test "homes are found by id, iterate in registration order, and leave on removal"
    (fun () ->
      let broker = Broker.create () in
      let open_home () = fst (Home.open_ ~fsync:false ~dir:(fresh_dir ()) ()) in
      List.iter (fun id -> Broker.add_home broker ~id (open_home ())) [ "c"; "a"; "b" ];
      check_bool "registration order" true (Broker.home_ids broker = [ "c"; "a"; "b" ]);
      let a = Broker.home broker "a" in
      check_bool "found by id" true
        (match Broker.home_opt broker "a" with Some h -> h == a | None -> false);
      check_bool "removal returns the home" true
        (match Broker.remove_home broker "a" with Some h -> h == a | None -> false);
      check_bool "gone from lookup" true (Broker.home_opt broker "a" = None);
      check_bool "gone from iteration" true (Broker.home_ids broker = [ "c"; "b" ]);
      check_bool "unknown id raises" true
        (match Broker.home broker "a" with exception Invalid_argument _ -> true | _ -> false);
      Broker.add_home broker ~id:"a" a;
      check_bool "re-added last" true (Broker.home_ids broker = [ "c"; "b"; "a" ]);
      check_bool "duplicate refused" true
        (match Broker.add_home broker ~id:"c" a with
        | exception Invalid_argument _ -> true
        | () -> false);
      check_bool "status counts homes" true (contains ~sub:"homes 3 " (Broker.status broker));
      close_all broker)

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
          broker_home_registry;
        ] );
      ( "sharing",
        [
          shared_same_source;
          shared_other_name;
          shared_never_failures;
          shared_with_replay;
          shared_changed_app;
          keep_installed_app;
        ] );
    ]
