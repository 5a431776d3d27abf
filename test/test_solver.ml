(** Constraint-solver tests: satisfiability, entailment, the lazy DNF
    (its conjunct and atom order, and formulas with thousands of
    conjuncts), model soundness and agreement with brute force. *)

open Homeguard_solver
open Formula
open Term

(* A decided solve: Unsat is [None]; an unlimited solve must never
   answer Unknown. *)
let model ?(store = Store.empty) f =
  match Solver.solve store f with
  | Budget.Sat m -> Some m
  | Budget.Unsat -> None
  | Budget.Unknown _ -> Alcotest.fail "an unlimited solve must decide"

let sat ?store f = Option.is_some (model ?store f)

let simple_sat =
  Helpers.test "x > 5 is satisfiable" (fun () ->
      Helpers.check_bool "sat" true (sat (gt (Var "x") (Int 5))))

let simple_unsat =
  Helpers.test "x > 5 && x < 3 is unsat" (fun () ->
      Helpers.check_bool "unsat" false
        (sat (conj [ gt (Var "x") (Int 5); lt (Var "x") (Int 3) ])))

let equality_chain =
  Helpers.test "transitive equality propagates" (fun () ->
      Helpers.check_bool "unsat" false
        (sat
           (conj
              [ eq (Var "a") (Var "b"); eq (Var "b") (Var "c"); gt (Var "a") (Int 10);
                lt (Var "c") (Int 5);
              ])))

let arithmetic =
  Helpers.test "x + y == 10 with bounds" (fun () ->
      let f =
        conj
          [ eq (Add (Var "x", Var "y")) (Int 10); ge (Var "x") (Int 0); ge (Var "y") (Int 0);
            gt (Var "x") (Int 8);
          ]
      in
      match model f with
      | Some m ->
        let get v = List.assoc v m in
        (match (get "x", get "y") with
        | Domain.Int x, Domain.Int y ->
          Helpers.check_int "sum" 10 (x + y);
          Helpers.check_bool "x > 8" true (x > 8)
        | _ -> Alcotest.fail "non-int model")
      | None -> Alcotest.fail "expected sat")

let subtraction =
  Helpers.test "x - y > 0 && x < y is unsat" (fun () ->
      Helpers.check_bool "unsat" false
        (sat (conj [ gt (Sub (Var "x", Var "y")) (Int 0); lt (Var "x") (Var "y") ])))

let multiplication_by_const =
  Helpers.test "2 * x == 7 is unsat over ints" (fun () ->
      Helpers.check_bool "unsat" false (sat (eq (Mul (Int 2, Var "x")) (Int 7))))

let multiplication_sat =
  Helpers.test "3 * x == 12 solves to 4" (fun () ->
      match model (eq (Mul (Int 3, Var "x")) (Int 12)) with
      | Some [ ("x", Domain.Int 4) ] -> ()
      | Some _ -> Alcotest.fail "wrong model"
      | None -> Alcotest.fail "expected sat")

let negation_pushing =
  Helpers.test "Not flips comparators" (fun () ->
      Helpers.check_bool "unsat" false
        (sat (conj [ gt (Var "x") (Int 5); Not (gt (Var "x") (Int 3)) ])))

let enum_sat =
  Helpers.test "enum equality with store" (fun () ->
      let store = Store.of_list [ ("sw", Domain.enums [ "on"; "off" ]) ] in
      Helpers.check_bool "sat" true (sat ~store (eq (Var "sw") (Str "on")));
      Helpers.check_bool "unsat" false (sat ~store (eq (Var "sw") (Str "open"))))

let enum_neq_chain =
  Helpers.test "exhausting an enum domain is unsat" (fun () ->
      let store = Store.of_list [ ("sw", Domain.enums [ "on"; "off" ]) ] in
      Helpers.check_bool "unsat" false
        (sat ~store (conj [ neq (Var "sw") (Str "on"); neq (Var "sw") (Str "off") ])))

let enum_inference =
  Helpers.test "untyped enum vars get inferred universes" (fun () ->
      (* without a store, an extra __other__ value keeps Neq satisfiable *)
      Helpers.check_bool "sat" true
        (sat (conj [ neq (Var "mode") (Str "Home"); neq (Var "mode") (Str "Away") ])))

let enum_join =
  Helpers.test "var-var enum equality joins universes" (fun () ->
      Helpers.check_bool "sat" true
        (sat (conj [ eq (Var "a") (Var "b"); eq (Var "b") (Str "on") ])))

let mixed_types_eq_unsat =
  Helpers.test "int = string is unsat" (fun () ->
      let store = Store.of_list [ ("x", Domain.interval 0 5) ] in
      Helpers.check_bool "unsat" false (sat ~store (eq (Var "x") (Str "on"))))

let disjunction =
  Helpers.test "disjunction explores both branches" (fun () ->
      let f =
        conj
          [ disj [ gt (Var "x") (Int 100); lt (Var "x") (Int (-100)) ]; ge (Var "x") (Int 0) ]
      in
      match model f with
      | Some [ ("x", Domain.Int x) ] -> Helpers.check_bool "x > 100" true (x > 100)
      | _ -> Alcotest.fail "expected model")

let entails_works =
  Helpers.test "entailment" (fun () ->
      (* f entails g when f && not g has no model *)
      let entails f g = not (sat (conj [ f; Not g ])) in
      Helpers.check_bool "x>5 |= x>3" true (entails (gt (Var "x") (Int 5)) (gt (Var "x") (Int 3)));
      Helpers.check_bool "x>3 |/= x>5" false (entails (gt (Var "x") (Int 3)) (gt (Var "x") (Int 5))))

let conflicts_works =
  Helpers.test "conflict detection" (fun () ->
      Helpers.check_bool "conflict" false (sat (conj [ gt (Var "x") (Int 5); lt (Var "x") (Int 2) ]));
      Helpers.check_bool "no conflict" true (sat (conj [ gt (Var "x") (Int 5); lt (Var "x") (Int 9) ])))

let true_false =
  Helpers.test "True/False literals" (fun () ->
      Helpers.check_bool "true sat" true (sat True);
      Helpers.check_bool "false unsat" false (sat False);
      Helpers.check_bool "conj false" false (sat (conj [ True; False ])))

(* -- DNF ------------------------------------------------------------------- *)

let dnf_shape =
  Helpers.test "DNF distributes" (fun () ->
      let f =
        conj [ disj [ eq (Var "a") (Int 1); eq (Var "a") (Int 2) ]; eq (Var "b") (Int 3) ]
      in
      Helpers.check_int "conjuncts" 2 (Seq.length (Dnf.of_formula f)))

let dnf_true_false =
  Helpers.test "DNF of True/False" (fun () ->
      Helpers.check_bool "true" true (List.of_seq (Dnf.of_formula True) = [ [] ]);
      Helpers.check_bool "false" true (List.of_seq (Dnf.of_formula False) = []))

(* Thirteen two-way disjunctions over distinct variables: 2^13 = 8,192
   conjuncts, twice the cap the materialised DNF had. [bad] picks
   disjunctions whose both sides contradict a final atom, so that every
   conjunct is Unsat. *)
let wide_formula ~bad =
  let xs = List.init 13 (fun i -> Printf.sprintf "w%02d" i) in
  let split x = disj [ eq (Var x) (Int 1); eq (Var x) (Int 2) ] in
  conj (List.map split xs @ if bad then [ gt (Var "w12") (Int 5) ] else [])

let wide_store =
  Store.of_list (List.init 13 (fun i -> (Printf.sprintf "w%02d" i, Domain.interval 0 9)))

let wide_dnf =
  Helpers.test "a DNF past the old 4,096-conjunct cap: Sat, Unsat and Unknown" (fun () ->
      Helpers.check_int "conjuncts" 8192 (Seq.length (Dnf.of_formula (wide_formula ~bad:false)));
      (match Solver.solve wide_store (wide_formula ~bad:false) with
      | Budget.Sat m ->
        let env v = List.assoc v m in
        Helpers.check_bool "the model satisfies the formula" true
          (Formula.eval env (wide_formula ~bad:false))
      | _ -> Alcotest.fail "expected Sat");
      (match Solver.solve wide_store (wide_formula ~bad:true) with
      | Budget.Unsat -> ()
      | _ -> Alcotest.fail "every conjunct is Unsat");
      let nodes_100 () =
        Budget.start { Budget.unlimited_spec with Budget.search_nodes = Some 100 }
      in
      let verdict = Solver.solve ~budget:(nodes_100 ()) wide_store (wide_formula ~bad:true) in
      (match verdict with
      | Budget.Unknown { Budget.trip = Budget.Node_fuel; _ } -> ()
      | Budget.Unknown _ -> Alcotest.fail "wrong trip for the node budget"
      | Budget.Unsat -> Alcotest.fail "an exhausted budget leaked as unsat (soundness hole)"
      | Budget.Sat _ -> Alcotest.fail "every conjunct is Unsat");
      (* each conjunct is refuted at its root node, so the 100 nodes
         decide 100 conjuncts and the 101st trips: the walk stops there
         instead of forcing the other 8,091 *)
      let forced = ref 0 in
      let counted =
        Seq.map
          (fun c ->
            incr forced;
            c)
          (Dnf.of_formula (wide_formula ~bad:true))
      in
      let walked = Solver.fold_verdicts (Search.solve ~budget:(nodes_100 ()) wide_store) counted in
      Helpers.check_int "conjuncts forced" 101 !forced;
      Helpers.check_bool "same verdict and reason as solve" true (walked = verdict))

(* -- budgets, three-valued verdicts and fault injection -------------------- *)

(* A 3-coloring-style conjunct: satisfiable, but only by splitting on
   several variables, so a depth cap of 1 cannot decide it. *)
let tri_atoms : Dnf.conjunct =
  [ (Neq, Var "x", Var "y"); (Neq, Var "y", Var "z"); (Neq, Var "x", Var "z") ]

let tri_store = Store.of_list (List.map (fun v -> (v, Domain.interval 0 2)) [ "x"; "y"; "z" ])

let depth_cap_regression =
  Helpers.test "regression: tiny depth cap answers Unknown, never unsat" (fun () ->
      (match Search.solve ~max_depth:1 tri_store tri_atoms with
      | Budget.Unknown { Budget.trip = Budget.Depth; _ } -> ()
      | Budget.Unknown _ -> Alcotest.fail "wrong trip for the depth cap"
      | Budget.Unsat -> Alcotest.fail "depth cap leaked as unsat (soundness hole)"
      | Budget.Sat _ -> Alcotest.fail "cannot decide within depth 1");
      match Search.solve tri_store tri_atoms with
      | Budget.Sat _ -> ()
      | _ -> Alcotest.fail "satisfiable at the default depth")

let node_fuel_trips =
  Helpers.test "search-node fuel exhaustion answers Unknown (Node_fuel)" (fun () ->
      let b = Budget.start { Budget.unlimited_spec with Budget.search_nodes = Some 1 } in
      match Search.solve ~budget:b tri_store tri_atoms with
      | Budget.Unknown { Budget.trip = Budget.Node_fuel; _ } -> ()
      | _ -> Alcotest.fail "expected Unknown Node_fuel")

let prop_fuel_trips =
  Helpers.test "propagation fuel exhaustion answers Unknown (Prop_fuel)" (fun () ->
      let b = Budget.start { Budget.unlimited_spec with Budget.prop_steps = Some 1 } in
      let f = conj [ gt (Var "x") (Int 5); lt (Var "x") (Int 3); eq (Var "y") (Var "x") ] in
      match Solver.solve ~budget:b Store.empty f with
      | Budget.Unknown { Budget.trip = Budget.Prop_fuel; _ } -> ()
      | _ -> Alcotest.fail "expected Unknown Prop_fuel")

let generous_budget_decides =
  Helpers.test "default budgets decide rule-sized formulas" (fun () ->
      let b = Budget.start Budget.default_spec in
      match Solver.solve ~budget:b tri_store (conj [ neq (Var "x") (Var "y") ]) with
      | Budget.Sat _ -> ()
      | _ -> Alcotest.fail "expected Sat under the default budgets")

let escalate_and_fingerprint =
  Helpers.test "escalate multiplies finite limits; fingerprints distinguish specs" (fun () ->
      let s = Budget.spec_of_nodes 10 in
      let e = Budget.escalate s in
      Helpers.check_bool "nodes escalated" true (e.Budget.search_nodes = Some 80);
      Helpers.check_bool "unlimited stays unlimited" true
        (Budget.escalate Budget.unlimited_spec = Budget.unlimited_spec);
      Helpers.check_bool "distinct fingerprints" true
        (Budget.cache_fingerprint s <> Budget.cache_fingerprint e);
      Helpers.check_bool "stable fingerprint" true
        (Budget.cache_fingerprint s = Budget.cache_fingerprint (Budget.spec_of_nodes 10)))

let fault_injection_modes =
  Helpers.test "armed faults: Exhaust -> Unknown, Raise -> Injected, disarm restores" (fun () ->
      let f = gt (Var "x") (Int 5) in
      Fun.protect ~finally:Fault.disarm (fun () ->
          Fault.arm ~seed:1 ~rate_per_thousand:1000 Fault.Exhaust;
          (match Solver.solve Store.empty f with
          | Budget.Unknown _ -> ()
          | _ -> Alcotest.fail "expected Unknown under an Exhaust fault");
          Fault.disarm ();
          Fault.arm ~seed:1 ~rate_per_thousand:1000 Fault.Raise;
          match Solver.solve Store.empty f with
          | exception Fault.Injected _ -> ()
          | _ -> Alcotest.fail "expected the injected crash to propagate");
      Helpers.check_bool "clean after disarm" true (sat f))

let fault_once_lets_retry_succeed =
  Helpers.test "once-mode faults fire per key only on the first solve" (fun () ->
      let f = gt (Var "x") (Int 5) in
      Fun.protect ~finally:Fault.disarm (fun () ->
          Fault.arm ~once:true ~seed:1 ~rate_per_thousand:1000 Fault.Exhaust;
          (match Solver.solve Store.empty f with
          | Budget.Unknown _ -> ()
          | _ -> Alcotest.fail "first solve should trip");
          match Solver.solve Store.empty f with
          | Budget.Sat _ -> ()
          | _ -> Alcotest.fail "retry of the same key should succeed"))

(* -- property tests -------------------------------------------------------- *)

let var_pool = [ "p"; "q"; "r" ]

let gen_formula =
  let open QCheck2.Gen in
  let gen_var = oneofl var_pool in
  let gen_term =
    oneof
      [ map (fun v -> Var v) gen_var; map (fun n -> Int n) (int_range 0 6) ]
  in
  let gen_atom =
    let* cmp = oneofl [ Eq; Neq; Lt; Le; Gt; Ge ] in
    let* a = gen_term and* b = gen_term in
    return (Atom (cmp, a, b))
  in
  (* size is capped: adversarial thousand-atom formulas are out of scope
     for rule-sized solving and would make the property run unbounded *)
  let rec gen n =
    if n <= 0 then gen_atom
    else
      let sub = gen (n / 2) in
      oneof
        [
          gen_atom;
          map (fun fs -> And fs) (list_size (int_range 1 3) sub);
          map (fun fs -> Or fs) (list_size (int_range 1 3) sub);
          map (fun f -> Not f) sub;
        ]
  in
  sized (fun n -> gen (min n 10))

let small_store =
  Store.of_list (List.map (fun v -> (v, Domain.interval 0 6)) var_pool)

let brute_force_sat f =
  let rec assign vars acc =
    match vars with
    | [] -> Formula.eval (fun v -> Domain.Int (List.assoc v acc)) f
    | v :: rest ->
      List.exists (fun n -> assign rest ((v, n) :: acc)) [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  assign var_pool []

let prop_agrees_with_brute_force =
  Helpers.qtest ~count:300 "solver agrees with brute force on small domains" gen_formula
    (fun f -> sat ~store:small_store f = brute_force_sat f)

let prop_model_satisfies =
  Helpers.qtest ~count:300 "returned models satisfy the formula" gen_formula (fun f ->
      match model ~store:small_store f with
      | None -> true
      | Some m ->
        let env v =
          match List.assoc_opt v m with
          | Some value -> value
          | None -> Domain.Int 0 (* unconstrained *)
        in
        Formula.eval env f)

let prop_nnf_preserves =
  Helpers.qtest ~count:300 "NNF preserves semantics" gen_formula (fun f ->
      let g = Formula.nnf f in
      let rec assign vars acc =
        match vars with
        | [] ->
          let env v = Domain.Int (List.assoc v acc) in
          Formula.eval env f = Formula.eval env g
        | v :: rest -> List.for_all (fun n -> assign rest ((v, n) :: acc)) [ 0; 3; 6 ]
      in
      assign var_pool [])

let prop_dnf_preserves =
  Helpers.qtest ~count:200 "DNF preserves semantics" gen_formula (fun f ->
      let g = Dnf.to_formula (List.of_seq (Dnf.of_formula f)) in
      let rec assign vars acc =
        match vars with
        | [] ->
          let env v = Domain.Int (List.assoc v acc) in
          Formula.eval env f = Formula.eval env g
        | v :: rest -> List.for_all (fun n -> assign rest ((v, n) :: acc)) [ 0; 2; 5 ]
      in
      assign var_pool [])

(* The materialised, uncapped DNF the lazy sequence replaced: [And]
   children crossed left to right, [Or] disjuncts concatenated. The
   solver stops at the first Sat conjunct, so this order fixes every
   witness. *)
let eager_dnf f =
  let cross d1 d2 = List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) d2) d1 in
  let rec go = function
    | True -> [ [] ]
    | False -> []
    | Atom (cmp, a, b) -> [ [ (cmp, a, b) ] ]
    | And fs -> List.fold_left (fun acc f -> cross acc (go f)) [ [] ] fs
    | Or fs -> List.concat_map go fs
    | Not _ -> invalid_arg "eager_dnf: formula not in NNF"
  in
  go (Formula.nnf f)

let prop_dnf_order =
  Helpers.qtest ~count:300 "lazy DNF yields the eager conjuncts, atoms in order" gen_formula
    (fun f -> List.of_seq (Dnf.of_formula f) = eager_dnf f)

let relevant_vars_deduped =
  Helpers.test "relevant_vars: a variable in several atoms appears once" (fun () ->
      let atoms =
        [ (Gt, Var "x", Int 1); (Lt, Var "x", Int 5); (Neq, Var "x", Var "y");
          (Eq, Add (Var "y", Var "x"), Int 4);
        ]
      in
      let vars = Search.relevant_vars atoms in
      Helpers.check_bool "no duplicate variables" true
        (List.length vars = List.length (List.sort_uniq compare vars));
      Helpers.check_bool "both variables present" true
        (List.mem "x" vars && List.mem "y" vars))

let witness_bindings_unique =
  Helpers.test "witness models carry one binding per variable" (fun () ->
      let f =
        conj
          [ gt (Var "x") (Int 1); lt (Var "x") (Int 5); neq (Var "x") (Int 3);
            eq (Var "y") (Var "x");
          ]
      in
      match model f with
      | Some m ->
        let names = List.map fst m in
        Helpers.check_bool "unique bindings" true
          (List.length names = List.length (List.sort_uniq compare names))
      | None -> Alcotest.fail "expected a model")

let tests =
  [
    relevant_vars_deduped;
    witness_bindings_unique;
    simple_sat;
    simple_unsat;
    equality_chain;
    arithmetic;
    subtraction;
    multiplication_by_const;
    multiplication_sat;
    negation_pushing;
    enum_sat;
    enum_neq_chain;
    enum_inference;
    enum_join;
    mixed_types_eq_unsat;
    disjunction;
    entails_works;
    conflicts_works;
    true_false;
    dnf_shape;
    dnf_true_false;
    wide_dnf;
    depth_cap_regression;
    node_fuel_trips;
    prop_fuel_trips;
    generous_budget_decides;
    escalate_and_fingerprint;
    fault_injection_modes;
    fault_once_lets_retry_succeed;
    prop_agrees_with_brute_force;
    prop_model_satisfies;
    prop_nnf_preserves;
    prop_dnf_preserves;
    prop_dnf_order;
  ]
