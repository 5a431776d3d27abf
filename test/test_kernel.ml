(** Differential tests for the solver kernel: the interned-variable
    {!Search.solve} and the one-walk {!Store.infer} against the
    string-keyed reference in {!Solver_ref}, on generated formulas and on
    every solve query the 125-app audit asks. Verdicts, witness lists,
    [Unknown] reasons (under every node and propagation budget from 0
    to 20), raised exceptions and inferred store bindings must all be
    equal. *)

open Homeguard_solver
open Formula
open Term
module Detector = Homeguard_detector.Detector

(* A solve's result, or the exception it raised, as a comparable value. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* [first], then each node budget and each propagation budget 0..20. *)
let specs first =
  first
  :: List.init 21 (fun n -> { Budget.unlimited_spec with Budget.search_nodes = Some n })
  @ List.init 21 (fun n -> { Budget.unlimited_spec with Budget.prop_steps = Some n })

let unlimited = specs Budget.unlimited_spec

let ref_solve ~budget store f =
  let store = Solver_ref.Store_infer.infer store f in
  match Solver.fold_verdicts (Solver_ref.Search.solve ~budget store) (Dnf.of_formula f) with
  | verdict -> verdict
  | exception Budget.Exhausted reason -> Budget.Unknown reason

let same_inference store f =
  outcome (fun () -> Store.bindings (Store.infer store f))
  = outcome (fun () -> Store.bindings (Solver_ref.Store_infer.infer store f))

(* Every conjunct of [f] over [store] closed by inference, and the whole
   formula through {!Solver.solve}, under every budget of [specs]. *)
let same_solves specs store f =
  let closed = Store.infer store f in
  List.for_all
    (fun spec ->
      List.for_all
        (fun c ->
          outcome (fun () -> Search.solve ~budget:(Budget.start spec) closed c)
          = outcome (fun () -> Solver_ref.Search.solve ~budget:(Budget.start spec) closed c))
        (List.of_seq (Dnf.of_formula f))
      && outcome (fun () -> Solver.solve ~budget:(Budget.start spec) store f)
         = outcome (fun () -> ref_solve ~budget:(Budget.start spec) store f))
    specs

let same_on_brute_force_formulas =
  Helpers.qtest ~count:300 "kernel = reference on the brute-force generator's conjuncts"
    Test_solver.gen_formula (fun f ->
      same_inference Test_solver.small_store f && same_solves unlimited Test_solver.small_store f)

(* Mixed enum and integer formulas: string constants, variable-variable
   joins, arithmetic and every comparator, over a store that types some
   variables and leaves the rest to inference. Ill-typed atoms raise,
   and must raise the same way in both. *)
let gen_mixed =
  let open QCheck2.Gen in
  let gen_var = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let leaf =
    oneof
      [ map (fun v -> Var v) gen_var;
        map (fun n -> Int n) (int_range (-3) 3);
        map (fun s -> Str s) (oneofl [ "on"; "off"; "away" ]);
      ]
  in
  let gen_term =
    frequency
      [ (6, leaf);
        (1, map2 (fun v n -> Add (Var v, Int n)) gen_var (int_range (-3) 3));
        (1, map2 (fun v w -> Sub (Var v, Var w)) gen_var gen_var);
        (1, map2 (fun n v -> Mul (Int n, Var v)) (int_range (-2) 2) gen_var);
        (1, map (fun v -> Neg (Var v)) gen_var);
      ]
  in
  let gen_atom =
    let* cmp = oneofl [ Eq; Eq; Neq; Lt; Le; Gt; Ge ] in
    let* a = gen_term and* b = gen_term in
    return (Atom (cmp, a, b))
  in
  let rec gen n =
    if n <= 0 then gen_atom
    else
      let sub = gen (n / 2) in
      oneof
        [ gen_atom;
          map (fun fs -> And fs) (list_size (int_range 1 4) sub);
          map (fun fs -> Or fs) (list_size (int_range 1 3) sub);
          map (fun f -> Not f) sub;
        ]
  in
  sized (fun n -> gen (min n 10))

(* Inferred integer variables span the ±1e6 defaults, where refuting a
   disequality by bisection can take millions of nodes: the first spec
   caps nodes instead of leaving them unlimited. *)
let capped = specs { Budget.unlimited_spec with Budget.search_nodes = Some 5000 }

let mixed_store =
  Store.of_list [ ("a", Domain.enums [ "on"; "off" ]); ("b", Domain.interval 0 5) ]

let same_on_mixed_formulas =
  Helpers.qtest ~count:300 "kernel = reference on mixed enum/int formulas" gen_mixed (fun f ->
      same_inference mixed_store f && same_solves capped mixed_store f)

(* Every solve the audit pool asks, captured through the detector's
   shared-cache hook. *)
let audit_queries =
  lazy
    (let queries = ref [] in
     let hook (q : Detector.solve_query) solve =
       queries := q :: !queries;
       solve ()
     in
     let ctx = Detector.create { Detector.offline_config with Detector.shared_cache = Some hook } in
     ignore (Detector.detect_all ~jobs:1 ctx (Lazy.force Test_planner.audit_pool));
     List.rev !queries)

let same_on_audit_queries =
  Helpers.test "kernel = reference on all 3917 audit-pool solve queries" (fun () ->
      let queries =
        List.map
          (fun q -> (q.Detector.q_store, q.Detector.q_formula))
          (Lazy.force audit_queries)
      in
      Helpers.check_int "queries" 3917 (List.length queries);
      let differing =
        List.filter
          (fun (store, f) -> not (same_inference store f && same_solves unlimited store f))
          queries
      in
      Alcotest.(check (list string))
        "queries where the kernel and the reference differ" []
        (List.map (fun (_, f) -> Formula.to_string f) differing))

(* One line per audit-pool solve query: everything a verdict-cache key
   and a fault-injection key are built from. *)
let query_line (q : Detector.solve_query) =
  let a1, a2 = q.Detector.q_apps in
  String.concat "\t"
    [ q.Detector.q_kind;
      a1 ^ "," ^ a2;
      Formula.to_string q.Detector.q_formula;
      String.concat ";"
        (List.map (fun (v, d) -> v ^ ":" ^ Domain.to_string d) (Store.bindings q.Detector.q_store));
      String.concat ";"
        (List.map (fun (v, t) -> v ^ "=" ^ Term.to_string t) q.Detector.q_bindings);
    ]

let audit_queries_pinned =
  Helpers.test "the 3917 audit-pool solve queries are byte-identical (digest)" (fun () ->
      let lines = List.map query_line (Lazy.force audit_queries) in
      Helpers.check_int "queries" 3917 (List.length lines);
      Helpers.check_string "query digest" "f57dda3cac1ca7939a80cd5143d3acfe"
        (Digest.to_hex (Digest.string (String.concat "\n" lines))))

(* -- the verdict memo ---------------------------------------------------------- *)

(* Detect [apps] through a hook that runs each query's solve twice on
   the ctx: the second run is the memo's to answer. [check] gets the
   query, both verdicts and whether the memo answered the second. *)
let ask_twice config apps check =
  let ctx = ref None in
  let hook (q : Detector.solve_query) solve =
    let c = Option.get !ctx in
    let first = solve () in
    let answers = c.Detector.memo_answers in
    let second = solve () in
    check q first second (c.Detector.memo_answers > answers);
    first
  in
  let c = Detector.create { config with Detector.shared_cache = Some hook } in
  ctx := Some c;
  ignore (Detector.detect_all ~jobs:1 c apps)

let memo_answers_as_fresh_solve =
  Helpers.test "the verdict memo answers each audit-pool query as a fresh solve does" (fun () ->
      let asked = ref 0 and wrong = ref [] in
      ask_twice Detector.offline_config (Lazy.force Test_planner.audit_pool)
        (fun q first second memo ->
          incr asked;
          let fresh = Solver.solve q.Detector.q_store q.Detector.q_formula in
          if not (memo && first = fresh && second = fresh) then
            wrong := Formula.to_string q.Detector.q_formula :: !wrong);
      Helpers.check_int "queries" 3917 !asked;
      Alcotest.(check (list string)) "queries the memo answered differently" [] !wrong)

let memo_keeps_no_unknown =
  Helpers.test "the verdict memo never keeps an Unknown (one-node budget)" (fun () ->
      let unknown = ref 0 and wrong = ref [] in
      let config =
        {
          Detector.offline_config with
          Detector.budget = { Budget.unlimited_spec with Budget.search_nodes = Some 1 };
          escalate = false;
        }
      in
      ask_twice config (Lazy.force Test_planner.audit_pool) (fun q first second memo ->
          match first with
          | Budget.Unknown _ ->
            incr unknown;
            if memo || second <> first then
              wrong := Formula.to_string q.Detector.q_formula :: !wrong
          | Budget.Sat _ | Budget.Unsat ->
            if not (memo && second = first) then
              wrong := Formula.to_string q.Detector.q_formula :: !wrong);
      Helpers.check_bool "some solves ran out of nodes" true (!unknown > 0);
      Alcotest.(check (list string)) "queries the memo kept wrongly" [] !wrong)

let tests =
  [ same_on_brute_force_formulas; same_on_mixed_formulas; same_on_audit_queries;
    audit_queries_pinned; memo_answers_as_fresh_solve; memo_keeps_no_unknown ]
