(** Fault-injection suite: audits under deterministic injected solver
    failures (crash / budget-exhaust / timeout).

    Runs as its own executable so the global {!Fault} hook never leaks
    into the main suite. The injection rate and seed are overridable via
    [HOMEGUARD_FAULT_RATE] / [HOMEGUARD_FAULT_SEED] (CI runs a second,
    hotter configuration); every assertion below must hold for any rate,
    because fault selection is a pure function of the armed seed and the
    solve key — never of call order or domain count. *)

module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Fault = Homeguard_solver.Fault

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let rate = env_int "HOMEGUARD_FAULT_RATE" 200
let seed = env_int "HOMEGUARD_FAULT_SEED" 42

let demo_apps =
  lazy
    (List.map
       (fun (e : Homeguard_corpus.App_entry.t) ->
         (Extract.extract_source ~name:e.Homeguard_corpus.App_entry.name
            e.Homeguard_corpus.App_entry.source)
           .Extract.app)
       Homeguard_corpus.Apps_demo.all)

let audit ~jobs () =
  let c = Detector.create Detector.offline_config in
  Detector.audit_all ~jobs c (Lazy.force demo_apps)

(* Comparable snapshot of an audit: threat strings with severities,
   undecided count, failure pairs+messages, retry count. *)
let snapshot (r : Detector.audit_result) =
  ( List.map
      (fun (t : Threat.t) ->
        (Threat.to_string t, Threat.severity_to_string t.Threat.severity))
      r.Detector.threats,
    r.Detector.undecided,
    List.map (fun (f : Detector.failure) -> (f.Detector.pair, f.Detector.exn)) r.Detector.failures,
    r.Detector.retried )

let clean_snapshot = lazy (Fault.disarm (); snapshot (audit ~jobs:1 ()))

let with_faults ?once mode f =
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm ?once ~seed ~rate_per_thousand:rate mode;
      f ())

let check_bool = Alcotest.(check bool)
let test name f = Alcotest.test_case name `Quick f

let subset_of ~clean threats =
  List.for_all (fun t -> List.mem t clean) threats

(* 1. A worker crash never tears down the audit: with every solve
   raising, the audit still completes, every solver-dependent pair lands
   in the structured error summary, and surviving threats are a subset
   of the clean run's. *)
let crash_isolation_total =
  test "audit completes when every solve crashes; failures are structured" (fun () ->
      let clean_threats, _, _, _ = Lazy.force clean_snapshot in
      Fun.protect ~finally:Fault.disarm (fun () ->
          Fault.arm ~seed ~rate_per_thousand:1000 Fault.Raise;
          let r = audit ~jobs:1 () in
          check_bool "some pairs failed" true (r.Detector.failures <> []);
          check_bool "failures were retried first" true
            (r.Detector.retried >= List.length r.Detector.failures);
          List.iter
            (fun (f : Detector.failure) ->
              check_bool "pair label present" true
                (String.length f.Detector.pair > 0
                && String.index_opt f.Detector.pair '~' <> None);
              check_bool "injected exception recorded" true
                (String.length f.Detector.exn > 0))
            r.Detector.failures;
          let faulty =
            List.map
              (fun (t : Threat.t) ->
                (Threat.to_string t, Threat.severity_to_string t.Threat.severity))
              r.Detector.threats
          in
          check_bool "no invented threats" true (subset_of ~clean:clean_threats faulty)))

(* 2. Determinism under faults: identical threat list, undecided set and
   error summary at jobs=1 and jobs=4, for the env-configured rate, in
   both crash and exhaust modes. *)
let deterministic_across_jobs mode label =
  test
    (Printf.sprintf "jobs=1 and jobs=4 agree under injected %s faults" label)
    (fun () ->
      with_faults mode (fun () ->
          let s1 = snapshot (audit ~jobs:1 ()) in
          Fault.disarm ();
          Fault.arm ~seed ~rate_per_thousand:rate mode;
          let s4 = snapshot (audit ~jobs:4 ()) in
          check_bool "identical audits" true (s1 = s4)))

(* 3. Exhaust faults in once-mode are fully absorbed by the escalation
   retry: the second solve of each tripped key decides, so the audit
   matches the clean run exactly (and records the escalations). *)
let escalation_absorbs_transient_exhaustion =
  test "once-mode exhaust faults: escalation retry restores the clean audit" (fun () ->
      let clean = Lazy.force clean_snapshot in
      with_faults ~once:true Fault.Exhaust (fun () ->
          let c = Detector.create Detector.offline_config in
          let r = Detector.audit_all ~jobs:1 c (Lazy.force demo_apps) in
          check_bool "audit equals the clean run" true (snapshot r = clean);
          check_bool "undecided fully recovered" true (r.Detector.undecided = 0);
          if rate > 0 then
            check_bool "escalations happened" true (c.Detector.escalations > 0)))

(* 4. Crash faults in once-mode exercise the coordinator retry path:
   first attempts crash, retries run with the fired keys spent. The
   audit completes deterministically whatever subset of retries
   succeeds. *)
let coordinator_retry_under_transient_crashes =
  test "once-mode crashes: coordinator retries run and audit completes" (fun () ->
      with_faults ~once:true Fault.Raise (fun () ->
          let r1 = snapshot (audit ~jobs:1 ()) in
          let _, _, failures, retried = r1 in
          if rate > 0 then check_bool "some pair was retried" true (retried > 0);
          check_bool "retries recovered at least one pair" true
            (List.length failures < retried || retried = 0);
          Fault.disarm ();
          Fault.arm ~once:true ~seed ~rate_per_thousand:rate Fault.Raise;
          check_bool "jobs=4 identical" true (snapshot (audit ~jobs:4 ()) = r1)))

(* 5. Timeout-mode faults surface as Unknown (Deadline), i.e. undecided
   threats or absorbed escalations — never as silent "no threat" and
   never as a crash. *)
let timeouts_never_crash =
  test "timeout faults yield a completed audit with no failures" (fun () ->
      with_faults Fault.Timeout (fun () ->
          let r = audit ~jobs:1 () in
          check_bool "no crashes from timeouts" true (r.Detector.failures = [])))

(* 6. Disarming restores the clean audit bit-for-bit. *)
let disarm_restores_clean =
  test "disarm restores the clean audit" (fun () ->
      with_faults Fault.Raise (fun () -> ignore (audit ~jobs:1 ()));
      check_bool "clean again" true (snapshot (audit ~jobs:1 ()) = Lazy.force clean_snapshot))

(* 7. An armed plan bypasses the verdict memo, so every solve reaches
   injection; one that never fires leaves the clean audit and its solver
   calls unchanged. *)
let armed_bypasses_memo =
  test "an armed fault plan bypasses the verdict memo" (fun () ->
      (* the demo apps ask no query twice; the audit pool's first 24 do *)
      let apps =
        List.filteri (fun i _ -> i < 24) Homeguard_corpus.Corpus.audit_apps
        |> List.map (fun (e : Homeguard_corpus.App_entry.t) ->
               (Extract.extract_source ~name:e.Homeguard_corpus.App_entry.name
                  e.Homeguard_corpus.App_entry.source)
                 .Extract.app)
      in
      let counted () =
        let c = Detector.create Detector.offline_config in
        let r = Detector.audit_all ~jobs:1 c apps in
        (snapshot r, c)
      in
      let clean, c0 = (Fault.disarm (); counted ()) in
      check_bool "the memo answers a clean audit" true (c0.Detector.memo_answers > 0);
      Fun.protect ~finally:Fault.disarm (fun () ->
          Fault.arm ~seed ~rate_per_thousand:0 Fault.Raise;
          let s, c = counted () in
          check_bool "a silent plan leaves the audit clean" true (s = clean);
          check_bool "the same solver calls" true
            (c.Detector.solver_calls = c0.Detector.solver_calls);
          check_bool "no memo answer under a silent plan" true (c.Detector.memo_answers = 0));
      with_faults Fault.Exhaust (fun () ->
          let _, c = counted () in
          check_bool "no memo answer under injected faults" true (c.Detector.memo_answers = 0)))

let () =
  Printf.printf "fault injection: rate=%d/1000 seed=%d\n%!" rate seed;
  Alcotest.run "homeguard-faults"
    [
      ( "faults",
        [
          crash_isolation_total;
          deterministic_across_jobs Fault.Raise "crash";
          deterministic_across_jobs Fault.Exhaust "exhaust";
          escalation_absorbs_transient_exhaustion;
          coordinator_retry_under_transient_crashes;
          timeouts_never_crash;
          disarm_restores_clean;
          armed_bypasses_memo;
        ] );
    ]
