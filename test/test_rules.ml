(** Rule IR and rule-database tests. *)

module Rule = Homeguard_rules.Rule
module Rule_db = Homeguard_rules.Rule_db
module Intern = Homeguard_rules.Intern
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
module Domain = Homeguard_solver.Domain
open Helpers

let mk_app ?(inputs = []) ?(rules = []) name =
  { Rule.name; description = ""; inputs; rules; uses_web_services = false }

let input var input_type = { Rule.var; input_type; title = None; multiple = false }

let mk_rule ?(app = "A") ?(id = "A#1") ?(data = []) ?(predicate = Formula.True)
    ?(actions = []) trigger =
  { Rule.app_name = app; rule_id = id; trigger; condition = { Rule.data; predicate }; actions }

let event_trigger ?(constraint_ = Formula.True) var attr =
  Rule.Event { subject = Rule.Device var; attribute = attr; constraint_ }

let capability_of_input =
  test "capability_of_input parses capability types" (fun () ->
      let app =
        mk_app "A" ~inputs:[ input "sw" "capability.switch"; input "n" "number" ]
      in
      check_bool "switch" true (Rule.capability_of_input app "sw" = Some "switch");
      check_bool "number" true (Rule.capability_of_input app "n" = None);
      check_bool "missing" true (Rule.capability_of_input app "zz" = None))

let device_inputs_test =
  test "device_inputs filters to capability-typed inputs" (fun () ->
      let app =
        mk_app "A"
          ~inputs:[ input "sw" "capability.switch"; input "n" "number"; input "l" "capability.lock" ]
      in
      (* the detector's per-app facts hold the app's device inputs *)
      let facts = Homeguard_detector.Detector.app_facts app in
      Alcotest.(check (list string)) "devices" [ "sw"; "l" ]
        (List.map (fun d -> d.Homeguard_detector.Detector.di_var) facts.app_inputs))

let situation_combines =
  test "situation conjoins trigger, data and predicate" (fun () ->
      let r =
        mk_rule
          (event_trigger "sw" "switch"
             ~constraint_:(Formula.eq (Term.Var "sw.switch") (Term.Str "on")))
          ~data:[ ("t", Term.Var "s.temperature") ]
          ~predicate:(Formula.gt (Term.Var "t") (Term.Int 30))
      in
      let vars = Formula.free_vars (Rule.situation r) in
      check_bool "has trigger var" true (List.mem "sw.switch" vars);
      check_bool "has data var" true (List.mem "s.temperature" vars);
      check_bool "has predicate var" true (List.mem "t" vars))

let store_types_capability_attrs =
  test "var_domain types each device attribute from the registry" (fun () ->
      let cap_of_var = function "sw" -> Some "switch" | _ -> None in
      let domain = Rule.var_domain ~cap_of_var in
      (match domain "sw.switch" with
      | Some (Domain.Enums vs) -> check_bool "on in domain" true (List.mem "on" vs)
      | _ -> Alcotest.fail "switch attr untyped");
      (match domain "location.mode" with
      | Some (Domain.Enums _) -> ()
      | _ -> Alcotest.fail "mode untyped");
      (match domain "time.now" with
      | Some (Domain.Ints _ | Domain.Bits _) -> ()
      | _ -> Alcotest.fail "time untyped");
      check_bool "a declared capability without the attribute types nothing" true
        (domain "sw.temperature" = None);
      check_bool "a variable without an attribute is untyped" true (domain "threshold" = None))

let store_falls_back_on_attribute =
  test "var_domain falls back to any capability with the attribute" (fun () ->
      match Rule.var_domain ~cap_of_var:(fun _ -> None) "x.temperature" with
      | Some (Domain.Ints _ | Domain.Bits _) -> ()
      | _ -> Alcotest.fail "temperature untyped")

let db_install_uninstall =
  test "rule db installs, updates, uninstalls" (fun () ->
      let db = Rule_db.create () in
      let r = mk_rule (event_trigger "sw" "switch") in
      let app = mk_app "A" ~rules:[ r ] in
      Rule_db.install db app;
      check_int "installed" 1 (List.length (Rule_db.installed_apps db));
      (* an update is the install flow's uninstall and reinstall *)
      Rule_db.uninstall db "A";
      Rule_db.install db { app with Rule.rules = [ r; { r with Rule.rule_id = "A#2" } ] };
      (match Rule_db.installed_apps db with
      | [ a ] -> check_int "the update's two rules" 2 (List.length a.Rule.rules)
      | apps -> Alcotest.failf "expected one app, got %d" (List.length apps));
      Rule_db.uninstall db "A";
      check_bool "uninstalled" false (Rule_db.mem db "A");
      check_int "empty" 0 (List.length (Rule_db.installed_apps db)))

(* -- per-process intern tables ------------------------------------------------- *)

let intern_add_keeps_first =
  test "Intern.add keeps the first value; replace drops it" (fun () ->
      let t = Intern.create ~bound:8 in
      let v1 = ref 1 and v2 = ref 1 in
      check_bool "new key holds its value" true (Intern.add t "k" v1 == v1);
      check_bool "second add returns the first" true (Intern.add t "k" v2 == v1);
      check_bool "find agrees" true (Intern.find t "k" = Some v1);
      Intern.replace t "k" v2;
      check_bool "replace wins" true (match Intern.find t "k" with Some v -> v == v2 | None -> false))

let intern_past_bound =
  test "an Intern table past its bound empties and stays correct" (fun () ->
      let t = Intern.create ~bound:4 in
      for i = 0 to 9 do
        check_int "holds what it was given" i (Intern.add t i i)
      done;
      check_bool "emptied at the bound" true (Intern.find t 0 = None);
      check_bool "the latest is held" true (Intern.find t 9 = Some 9))

let share_app_laws =
  test "share_app: equal apps share the held value, a changed one replaces it" (fun () ->
      let a = mk_app ~inputs:[ input "s1" "capability.switch" ] "ShareLawsApp" in
      let copy = { a with Rule.inputs = List.map (fun i -> { i with Rule.var = "s1" }) a.Rule.inputs } in
      check_bool "a copy, not the same value" true (copy != a && copy = a);
      let held = Intern.share_app a in
      check_bool "the first is held" true (held == a);
      check_bool "an equal copy gets the held value" true (Intern.share_app copy == a);
      let changed = mk_app ~inputs:[ input "s2" "capability.switch" ] "ShareLawsApp" in
      check_bool "a changed app is returned as is" true (Intern.share_app changed == changed);
      check_bool "and is held from then on" true (Intern.share_app copy == copy);
      check_bool "another name is its own entry" true
        (let other = { a with Rule.name = "ShareLawsOther" } in
         Intern.share_app other == other))

let tests =
  [
    capability_of_input;
    device_inputs_test;
    situation_combines;
    store_types_capability_attrs;
    store_falls_back_on_attribute;
    db_install_uninstall;
    intern_add_keeps_first;
    intern_past_bound;
    share_app_laws;
  ]
