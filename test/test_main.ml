(** Test-suite entry point: one alcotest run across all modules. *)

let () =
  Alcotest.run "homeguard"
    [
      ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("domain", Test_domain.tests);
      ("domain-model", Test_domain_model.tests);
      ("bench-lib", Test_bench.tests);
      ("solver", Test_solver.tests);
      ("kernel", Test_kernel.tests);
      ("capability", Test_capability.tests);
      ("rules", Test_rules.tests);
      ("json", Test_json.tests);
      ("symexec", Test_symexec.tests);
      ("detector", Test_detector.tests);
      ("planner", Test_planner.tests);
      ("schedule", Test_schedule.tests);
      ("exec-more", Test_exec_more.tests);
      ("chain", Test_chain.tests);
      ("ifttt", Test_ifttt.tests);
      ("simulator", Test_sim.tests);
      ("handling", Test_handling.tests);
      ("config", Test_config.tests);
      ("frontend", Test_frontend.tests);
      ("corpus", Test_corpus.tests);
      ("integration", Test_integration.tests);
      ("robustness", Test_robustness.tests);
      ("totality", Test_total.tests);
    ]
