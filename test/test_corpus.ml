(** Corpus-wide tests: extraction correctness against ground truth
    (the §VIII-B effectiveness experiment) and corpus construction. *)

module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
open Homeguard_corpus
open Helpers

let corpus_shape =
  test "corpus construction mirrors the paper's partition" (fun () ->
      check_bool "120+ rule-defining apps" true (List.length Corpus.rule_defining >= 120);
      check_bool "90+ audit apps" true
        (List.length Corpus.audit_apps >= 90 && List.length Corpus.audit_apps <= 130);
      check_int "18 malicious apps (Table III)" 18 (List.length Corpus.malicious);
      check_bool "web-service apps present" true (List.length Corpus.web_services >= 4))

let unique_names =
  test "app names are unique" (fun () ->
      let names = List.map (fun (e : App_entry.t) -> e.App_entry.name) Corpus.all in
      check_int "no duplicates" (List.length names) (List.length (List.sort_uniq compare names)))

let every_app_parses =
  test "every corpus app parses" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          try ignore (Homeguard_groovy.Parser.parse e.App_entry.source)
          with ex -> Alcotest.failf "%s: %s" e.App_entry.name (Printexc.to_string ex))
        Corpus.all)

let extraction_matches_ground_truth =
  test "rule extraction matches manual ground truth on all apps" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let app = extract ~name:e.App_entry.name e.App_entry.source in
          if e.App_entry.ground_truth_rules = -1 then
            check_bool (e.App_entry.name ^ " flagged web-service") true
              app.Rule.uses_web_services
          else if List.length app.Rule.rules <> e.App_entry.ground_truth_rules then
            Alcotest.failf "%s: extracted %d rules, ground truth %d" e.App_entry.name
              (List.length app.Rule.rules) e.App_entry.ground_truth_rules)
        Corpus.all)

let no_truncation =
  test "no corpus app exhausts the path budget" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let r = Extract.extract_source ~name:e.App_entry.name e.App_entry.source in
          if r.Extract.diags.Extract.truncated then
            Alcotest.failf "%s truncated" e.App_entry.name)
        Corpus.all)

(* Does the rule control a device, the location mode or the hub, rather
   than only notify? *)
let controls_devices (r : Rule.t) =
  List.exists
    (fun (a : Rule.action) ->
      match a.Rule.target with
      | Rule.Act_device _ | Act_location_mode | Act_hub -> true
      | Act_messaging | Act_http -> false)
    r.Rule.actions

let notification_apps_control_nothing =
  test "notification apps define no device-controlling rules" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          if e.App_entry.category = App_entry.Notification then begin
            let app = extract ~name:e.App_entry.name e.App_entry.source in
            List.iter
              (fun r ->
                if controls_devices r then
                  Alcotest.failf "%s controls devices" e.App_entry.name)
              app.Rule.rules
          end)
        Corpus.benign)

let audit_apps_control_devices =
  test "audit apps do control devices or modes" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let app = extract ~name:e.App_entry.name e.App_entry.source in
          if not (List.exists controls_devices app.Rule.rules) then
            Alcotest.failf "%s controls nothing" e.App_entry.name)
        Corpus.audit_apps)

let malicious_analyzability =
  test "Table III: analyzability per attack class" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let app = extract ~name:e.App_entry.name e.App_entry.source in
          if Apps_malicious.statically_analyzable e then begin
            if e.App_entry.ground_truth_rules > 0 && app.Rule.rules = [] then
              Alcotest.failf "%s: no rules extracted from analyzable malware" e.App_entry.name
          end
          else
            (* endpoint/app-update attacks: either no rules, or the rules
               don't reveal the attack (statically benign) *)
            check_bool (e.App_entry.name ^ " is a known-hard case") true
              (app.Rule.uses_web_services || e.App_entry.ground_truth_rules >= 0))
        Corpus.malicious)

let spyware_exfiltration_visible =
  test "spyware rules expose their HTTP exfiltration sinks" (fun () ->
      List.iter
        (fun name ->
          let app = extract_corpus name in
          let has_http =
            List.exists
              (fun (r : Rule.t) ->
                List.exists (fun a -> a.Rule.target = Rule.Act_http) r.Rule.actions)
              app.Rule.rules
          in
          check_bool (name ^ " leaks over HTTP") true has_http)
        [ "LockManagerSpyware"; "DoorLockPinCodeSnooping"; "AutoCamera2"; "BabyMonitorLeaker" ])

let abuse_visible =
  test "permission abuse surfaces as an unexpected lock command" (fun () ->
      let app = extract_corpus "shiqiBatteryMonitor" in
      check_bool "unlock action extracted" true
        (List.exists
           (fun (r : Rule.t) ->
             List.exists (fun a -> a.Rule.command = "unlock") r.Rule.actions)
           app.Rule.rules))

let tests =
  [
    corpus_shape;
    unique_names;
    every_app_parses;
    extraction_matches_ground_truth;
    no_truncation;
    notification_apps_control_nothing;
    audit_apps_control_devices;
    malicious_analyzability;
    spyware_exfiltration_visible;
    abuse_visible;
  ]
