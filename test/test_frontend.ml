(** Frontend tests: rule/threat interpreters and the install flow. *)

module Rule = Homeguard_rules.Rule
module Rule_interpreter = Homeguard_frontend.Rule_interpreter
module Threat_interpreter = Homeguard_frontend.Threat_interpreter
module Install_flow = Homeguard_frontend.Install_flow
module Threat = Homeguard_detector.Threat
module Detector = Homeguard_detector.Detector
open Helpers

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let describe_comfort_tv =
  test "rule interpreter renders ComfortTV readably" (fun () ->
      let app = extract_corpus "ComfortTV" in
      let text = Rule_interpreter.describe (the_rule app) in
      check_bool "mentions trigger value" true (contains text "switch of tv1 is on");
      check_bool "mentions temperature" true (contains text "temperature");
      check_bool "mentions window action" true (contains text "window1"))

let describe_delay =
  test "rule interpreter reports delays" (fun () ->
      let app = extract_corpus "NightCare" in
      let text = Rule_interpreter.describe (the_rule app) in
      check_bool "after 300 seconds" true (contains text "after 300 seconds"))

let describe_schedule =
  test "rule interpreter renders schedules" (fun () ->
      let app = extract_corpus "GoodMorningCoffee" in
      let text = Rule_interpreter.describe (the_rule app) in
      check_bool "daily time" true (contains text "day at 07:00"))

let describe_app_numbering =
  test "describe_app numbers the rules" (fun () ->
      let app = extract_corpus "LightUpTheNight" in
      let text = Rule_interpreter.describe_app app in
      check_bool "R1" true (contains text "R1.");
      check_bool "R2" true (contains text "R2."))

let describe_empty_app =
  test "describe_app handles rule-less apps" (fun () ->
      let app = extract_corpus "WebDashboard" in
      check_bool "no rules message" true
        (contains (Rule_interpreter.describe_app app) "no automation rules"))

let threat_description =
  test "threat interpreter explains category, apps and risk" (fun () ->
      let a = extract_corpus "ComfortTV" and b = extract_corpus "ColdDefender" in
      let ctx = Detector.create Detector.offline_config in
      let threats =
        Detector.detect_pair ctx (a, List.hd a.Rule.rules) (b, List.hd b.Rule.rules)
      in
      let ar = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.AR) threats in
      let text = Threat_interpreter.describe ar in
      check_bool "names the category" true (contains text "Actuator Race");
      check_bool "names both apps" true
        (contains text "ComfortTV" && contains text "ColdDefender");
      check_bool "shows a situation" true (contains text "Example situation");
      check_bool "hides solver internals" false (contains text "__other__");
      check_bool "strips app qualifiers" false (contains text "::"))

let describe_all_empty =
  test "describe_all with no threats" (fun () ->
      check_bool "calm message" true
        (contains (Threat_interpreter.describe_all []) "No cross-app interference"))

let undecided_rendered_distinctly =
  test "threat interpreter marks undecided threats and their reason" (fun () ->
      let a = extract_corpus "ComfortTV" and b = extract_corpus "ColdDefender" in
      let t =
        Threat.make Threat.AR
          (a, List.hd a.Rule.rules)
          (b, List.hd b.Rule.rules)
          ~severity:(Threat.Undecided "search-node fuel exhausted in Search.solve")
          "contradictory commands on the same actuator (on vs off)"
      in
      let text = Threat_interpreter.describe t in
      check_bool "marked undecided" true (contains text "UNDECIDED");
      check_bool "reason shown" true (contains text "search-node fuel exhausted");
      check_bool "flagged conservative" true (contains text "potential threat");
      let all = Threat_interpreter.describe_all [ t ] in
      check_bool "summary counts undecided" true (contains all "1 undecided");
      check_bool "to_string carries the marker" true
        (contains (Threat.to_string t) "[AR?]"))

let install_flow_keep =
  test "install flow: keep installs and records allowed pairs" (fun () ->
      let flow = Install_flow.create () in
      let report1 = Install_flow.propose flow (extract_corpus "ComfortTV") in
      check_int "no threats for the first app" 0 (List.length report1.Install_flow.threats);
      Install_flow.decide flow Install_flow.Keep;
      let report2 = Install_flow.propose flow (extract_corpus "ColdDefender") in
      check_bool "threats against installed app" true (report2.Install_flow.threats <> []);
      Install_flow.decide flow Install_flow.Keep;
      check_int "both installed" 2 (List.length (Install_flow.installed_apps flow)))

let install_flow_reject =
  test "install flow: reject leaves the home unchanged" (fun () ->
      let flow = Install_flow.create () in
      ignore (Install_flow.propose flow (extract_corpus "ComfortTV"));
      Install_flow.decide flow Install_flow.Keep;
      ignore (Install_flow.propose flow (extract_corpus "ColdDefender"));
      Install_flow.decide flow Install_flow.Reject;
      check_int "only first installed" 1 (List.length (Install_flow.installed_apps flow)))

let install_flow_no_pending =
  test "deciding without a proposal raises" (fun () ->
      let flow = Install_flow.create () in
      match Install_flow.decide flow Install_flow.Keep with
      | exception Install_flow.No_pending_install -> ()
      | _ -> Alcotest.fail "expected No_pending_install")

let install_flow_chained =
  test "install flow: chains surface through the Allowed list" (fun () ->
      let flow = Install_flow.create () in
      (* SwitchChangesMode -> MakeItSo forms CT edges; keep both *)
      ignore (Install_flow.propose flow (extract_corpus "MakeItSo"));
      Install_flow.decide flow Install_flow.Keep;
      ignore (Install_flow.propose flow (extract_corpus "SwitchChangesMode"));
      Install_flow.decide flow Install_flow.Keep;
      (* CurlingIron turns on outlets; via SwitchChangesMode the mode
         flips, and MakeItSo then unlocks the door: a 3-rule chain *)
      let report = Install_flow.propose flow (extract_corpus "CurlingIron") in
      check_bool "chained threat reported" true (report.Install_flow.chains <> []))

(* The texts a user reads, pinned byte for byte: every fifth audit-pool
   app is proposed and kept in one flow, and each report's rules,
   threats and handling texts are digested in order. The constants were
   captured when the texts were still rendered eagerly inside
   [propose]; rendering them on demand must not change a byte. *)
let report_texts_pinned =
  test "install reports' rules, threats and handling texts are pinned" (fun () ->
      let flow = Install_flow.create () in
      let rules = Buffer.create 4096
      and threats = Buffer.create 65536
      and handling = Buffer.create 32768 in
      let add b text =
        Buffer.add_string b text;
        Buffer.add_char b '\n'
      in
      let n_threats = ref 0 in
      List.iteri
        (fun i (e : Homeguard_corpus.App_entry.t) ->
          if i mod 5 = 0 then begin
            let r =
              Install_flow.propose flow
                (extract ~name:e.Homeguard_corpus.App_entry.name
                   e.Homeguard_corpus.App_entry.source)
            in
            n_threats := !n_threats + List.length r.Install_flow.threats;
            add rules (Install_flow.rules_text r);
            add threats (Install_flow.threats_text r);
            add handling (Install_flow.handling_text r);
            Install_flow.decide flow Install_flow.Keep
          end)
        Homeguard_corpus.Corpus.audit_apps;
      let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
      check_int "threats across the 25 reports" 183 !n_threats;
      check_string "rules text" "d99b671377b01c46d37d009800227255" (digest rules);
      check_string "threats text" "38d4a144d2a4d6ab5265a4c6a39df2e4" (digest threats);
      check_string "handling text" "d64a3240192f3493cf0be69187efc31d" (digest handling))

(* Every occurrence of [sub] in [s] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

(* The threats, witnesses and solve queries of an audit, one line each,
   captured through the shared-cache hook. *)
let audit_lines apps =
  let queries = ref [] in
  let hook q solve =
    queries := Test_kernel.query_line q :: !queries;
    solve ()
  in
  let ctx = Detector.create { Detector.offline_config with Detector.shared_cache = Some hook } in
  let threats = Detector.detect_all ~jobs:1 ctx apps in
  ( Threat_interpreter.describe_all threats,
    List.map Test_planner.witness_line threats,
    List.rev !queries )

(* A switch whose rule reads a temperature its capability does not
   declare: the variable is typed by its own app's input (untyped), not
   by any capability with the attribute (-40..150). *)
let cold_fan_source =
  {|
definition(name: "ColdFan", description: "Heat when the fan reads cold")

preferences {
  section("Devices") {
    input "fan", "capability.switch", title: "Fan"
    input "heater", "capability.switch", title: "Space heater"
  }
}

def installed() {
  subscribe(fan, "switch", handler)
}

def handler(evt) {
  if (fan.currentTemperature < -100) {
    heater.on()
  }
}
|}

let heater_off_source =
  {|
definition(name: "HeaterOff", description: "Turn the space heater off")

preferences {
  section("Devices") {
    input "heater2", "capability.switch", title: "Space heater"
    input "door", "capability.contactSensor", title: "Door"
  }
}

def installed() {
  subscribe(door, "contact.open", handler)
}

def handler(evt) {
  heater2.off()
}
|}

(* Solver variables are named "App::var"; an app name may itself hold a
   ':', so naming, typing and unnaming must not split at the first one. *)
let colon_in_app_name =
  test "an app named Attic:Fan gives AtticFan's threats, witnesses and solves" (fun () ->
      let source name =
        match Homeguard_corpus.Corpus.find name with
        | Some e -> e.Homeguard_corpus.App_entry.source
        | None -> Alcotest.fail name
      in
      let same_but_name label apps =
        let text, witnesses, queries = audit_lines (apps "AtticFan") in
        let text', witnesses', queries' = audit_lines (apps "Attic:Fan") in
        let back = replace_all ~sub:"Attic:Fan" ~by:"AtticFan" in
        check_bool (label ^ ": threats found") true (witnesses <> []);
        check_string (label ^ ": report") text (back text');
        Alcotest.(check (list string))
          (label ^ ": threats and witnesses") witnesses (List.map back witnesses');
        Alcotest.(check (list string)) (label ^ ": solve queries") queries (List.map back queries');
        text
      in
      let text =
        same_but_name "fixtures" (fun name ->
            [ extract ~name (source "AtticFanController"); extract_corpus "BathroomFanTimer" ])
      in
      check_bool "the witness names the variable alone" true
        (contains text "Example situation: atticTemp.temperature = ");
      let text =
        same_but_name "own typing" (fun name ->
            [ extract ~name cold_fan_source; extract heater_off_source ])
      in
      check_bool "the race holds below the capability range" true
        (contains text "Example situation: fan.temperature = -101"))

let tests =
  [
    describe_comfort_tv;
    describe_delay;
    describe_schedule;
    describe_app_numbering;
    describe_empty_app;
    threat_description;
    describe_all_empty;
    undecided_rendered_distinctly;
    install_flow_keep;
    install_flow_reject;
    install_flow_no_pending;
    install_flow_chained;
    report_texts_pinned;
    colon_in_app_name;
  ]
