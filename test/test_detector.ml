(** Threat-detector tests: each CAI category on the paper's own
    examples, candidate filtering, device matching and solver reuse. *)

module Rule = Homeguard_rules.Rule
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Effects = Homeguard_detector.Effects
module Channels = Homeguard_detector.Channels
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
open Helpers

let ctx () = Detector.create Detector.offline_config

let tagged app = List.map (fun r -> (app, r)) app.Rule.rules

let detect_between app1 app2 =
  let c = ctx () in
  List.concat_map
    (fun p1 -> List.concat_map (fun p2 -> Detector.detect_pair c p1 p2) (tagged app2))
    (tagged app1)

let has cat threats = List.exists (fun (t : Threat.t) -> t.Threat.category = cat) threats

let cats threats =
  List.sort_uniq compare (List.map (fun (t : Threat.t) -> t.Threat.category) threats)

(* -- paper examples -------------------------------------------------------- *)

let fig3_actuator_race =
  test "Fig 3: ComfortTV vs ColdDefender is an Actuator Race" (fun () ->
      let threats = detect_between (extract_corpus "ComfortTV") (extract_corpus "ColdDefender") in
      check_bool "AR found" true (has Threat.AR threats);
      let ar = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.AR) threats in
      check_bool "witness provided" true (ar.Threat.witness <> None))

let fig4_covert_triggering =
  test "Fig 4: CatchLiveShow covertly triggers ComfortTV" (fun () ->
      let threats =
        detect_between (extract_corpus "CatchLiveShow") (extract_corpus "ComfortTV")
      in
      check_bool "CT found" true (has Threat.CT threats);
      let ct = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.CT) threats in
      check_string "direction: CatchLiveShow first" "CatchLiveShow"
        ct.Threat.app1.Rule.name)

let fig5_disabling_condition =
  test "Fig 5: NightCare disables BurglarFinder's condition" (fun () ->
      let threats = detect_between (extract_corpus "NightCare") (extract_corpus "BurglarFinder") in
      check_bool "DC found" true (has Threat.DC threats))

let self_disabling_energy =
  test "§VIII-B(5): EnergySaver self-disables ItsTooHot" (fun () ->
      let threats = detect_between (extract_corpus "ItsTooHot") (extract_corpus "EnergySaver") in
      check_bool "SD found" true (has Threat.SD threats);
      check_bool "CT found (AC raises power)" true (has Threat.CT threats))

let loop_triggering_light =
  test "§VIII-B(6): LightUpTheNight loop-triggers itself across rules" (fun () ->
      let app = extract_corpus "LightUpTheNight" in
      check_int "two rules" 2 (List.length app.Rule.rules);
      let c = ctx () in
      let threats =
        match app.Rule.rules with
        | [ r1; r2 ] -> Detector.detect_pair c (app, r1) (app, r2)
        | _ -> []
      in
      (* same-app pairs are also analyzed (paper §III) *)
      check_bool "LT found" true (has Threat.LT threats))

let covert_rule_switch_mode_lock =
  test "§VIII-B(1): SwitchChangesMode + MakeItSo covert rule" (fun () ->
      let threats =
        detect_between (extract_corpus "SwitchChangesMode") (extract_corpus "MakeItSo")
      in
      check_bool "CT via mode" true (has Threat.CT threats))

let nfc_vs_lock_it =
  test "§VIII-B(3): NFCTagToggle races LockItWhenILeave on the lock" (fun () ->
      let threats =
        detect_between (extract_corpus "NFCTagToggle") (extract_corpus "LockItWhenILeave")
      in
      (* the unlock branch races/undoes the automatic lock *)
      check_bool "some threat" true (threats <> []);
      check_bool "GC or AR or CT" true
        (has Threat.GC threats || has Threat.AR threats || has Threat.CT threats
        || has Threat.EC threats))

let let_there_be_dark_races =
  test "§VIII-B(4): LetThereBeDark races other light controllers" (fun () ->
      let threats =
        detect_between (extract_corpus "LetThereBeDark") (extract_corpus "UndeadEarlyWarning")
      in
      check_bool "AR candidate pair detected" true
        (has Threat.AR threats || has Threat.CT threats || has Threat.EC threats))

(* -- synthetic unit cases -------------------------------------------------- *)

let mk_input ?(title = None) var input_type = { Rule.var; input_type; title; multiple = false }

let mk_app name inputs rules =
  { Rule.name; description = ""; inputs; rules; uses_web_services = false }

let dev_action ?(when_ = 0) var command =
  { Rule.target = Rule.Act_device var; command; params = []; when_; period = 0; action_data = [] }

let simple_rule app_name id ~trigger_var ~attr ~value ~actions =
  {
    Rule.app_name;
    rule_id = id;
    trigger =
      Rule.Event
        {
          subject = Rule.Device trigger_var;
          attribute = attr;
          constraint_ = Formula.eq (Term.Var (trigger_var ^ "." ^ attr)) (Term.Str value);
        };
    condition = { Rule.data = []; predicate = Formula.True };
    actions;
  }

let ar_same_trigger_detected =
  test "AR: same trigger, opposite commands, overlapping conditions" (fun () ->
      let app1 =
        mk_app "A"
          [ mk_input "m" "capability.motionSensor"; mk_input "sw" "capability.switch" ]
          [ simple_rule "A" "A#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "sw" "on" ] ]
      in
      let app2 =
        mk_app "B"
          [ mk_input "m2" "capability.motionSensor"; mk_input "sw2" "capability.switch" ]
          [ simple_rule "B" "B#1" ~trigger_var:"m2" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "sw2" "off" ] ]
      in
      check_bool "AR" true (has Threat.AR (detect_between app1 app2)))

let ar_disjoint_conditions_not_detected =
  test "AR: contradictory commands but disjoint conditions -> no threat" (fun () ->
      let rule app id pred cmd =
        {
          (simple_rule app id ~trigger_var:"m" ~attr:"motion" ~value:"active"
             ~actions:[ dev_action "sw" cmd ])
          with
          Rule.condition = { Rule.data = []; predicate = pred };
        }
      in
      let app1 =
        mk_app "A"
          [ mk_input "m" "capability.motionSensor"; mk_input "sw" "capability.switch";
            mk_input "t" "capability.temperatureMeasurement" ]
          [ rule "A" "A#1" (Formula.gt (Term.Var "t.temperature") (Term.Int 80)) "on" ]
      in
      let app2 =
        mk_app "B"
          [ mk_input "m" "capability.motionSensor"; mk_input "sw" "capability.switch";
            mk_input "t" "capability.temperatureMeasurement" ]
          [ rule "B" "B#1" (Formula.lt (Term.Var "t.temperature") (Term.Int 40)) "off" ]
      in
      check_bool "no AR (temperature ranges disjoint)" false
        (has Threat.AR (detect_between app1 app2)))

let ar_different_devices_not_detected =
  test "AR: opposite commands on different device classes -> no race" (fun () ->
      let app1 =
        mk_app "A"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Desk lamp") "sw" "capability.switch" ]
          [ simple_rule "A" "A#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "sw" "on" ] ]
      in
      let app2 =
        mk_app "B"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Ceiling fan") "sw" "capability.switch" ]
          [ simple_rule "B" "B#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "sw" "off" ] ]
      in
      check_bool "no AR" false (has Threat.AR (detect_between app1 app2)))

let gc_heater_vs_window =
  test "GC: heater on vs window open conflict over temperature" (fun () ->
      let app1 =
        mk_app "HeatApp"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Space heater") "heater" "capability.switch" ]
          [ simple_rule "HeatApp" "H#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "heater" "on" ] ]
      in
      let app2 =
        mk_app "WindowApp"
          [ mk_input "c" "capability.contactSensor";
            mk_input ~title:(Some "Window opener") "window" "capability.switch" ]
          [ simple_rule "WindowApp" "W#1" ~trigger_var:"c" ~attr:"contact" ~value:"open"
              ~actions:[ dev_action "window" "on" ] ]
      in
      let threats = detect_between app1 app2 in
      check_bool "GC over temperature" true
        (List.exists
           (fun (t : Threat.t) ->
             t.Threat.category = Threat.GC
             && String.length t.Threat.detail > 0
             &&
             let rec contains s sub i =
               i + String.length sub <= String.length s
               && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
             in
             contains t.Threat.detail "temperature" 0)
           threats))

let directional_ct =
  test "CT edges are directional" (fun () ->
      let trigger_app =
        mk_app "Trigger"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Hall light") "l1" "capability.switch" ]
          [ simple_rule "Trigger" "T#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "l1" "on" ] ]
      in
      let reactive_app =
        mk_app "React"
          [ mk_input ~title:(Some "Hall light") "l2" "capability.switch";
            mk_input "siren" "capability.alarm" ]
          [ simple_rule "React" "R#1" ~trigger_var:"l2" ~attr:"switch" ~value:"on"
              ~actions:[ dev_action "siren" "siren" ] ]
      in
      let threats = detect_between trigger_app reactive_app in
      let ct = List.filter (fun (t : Threat.t) -> t.Threat.category = Threat.CT) threats in
      check_int "exactly one CT" 1 (List.length ct);
      check_string "direction" "Trigger" (List.hd ct).Threat.app1.Rule.name)

let ct_value_mismatch_filtered =
  test "CT: written value incompatible with trigger constraint -> filtered" (fun () ->
      let off_app =
        mk_app "OffApp"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Hall light") "l1" "capability.switch" ]
          [ simple_rule "OffApp" "O#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "l1" "off" ] ]
      in
      let on_watcher =
        mk_app "Watcher"
          [ mk_input ~title:(Some "Hall light") "l2" "capability.switch";
            mk_input "siren" "capability.alarm" ]
          [ simple_rule "Watcher" "W#1" ~trigger_var:"l2" ~attr:"switch" ~value:"on"
              ~actions:[ dev_action "siren" "siren" ] ]
      in
      let threats = detect_between off_app on_watcher in
      check_bool "no CT (off cannot satisfy switch==on)" false (has Threat.CT threats))

let ec_dc_direction =
  test "EC vs DC depends on written value vs condition" (fun () ->
      let writer value =
        mk_app "Writer"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Porch light") "l1" "capability.switch" ]
          [ simple_rule "Writer" "W#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ dev_action "l1" value ] ]
      in
      let checker =
        mk_app "Checker"
          [ mk_input "c" "capability.contactSensor";
            mk_input ~title:(Some "Porch light") "l2" "capability.switch";
            mk_input "siren" "capability.alarm" ]
          [
            {
              (simple_rule "Checker" "C#1" ~trigger_var:"c" ~attr:"contact" ~value:"open"
                 ~actions:[ dev_action "siren" "siren" ])
              with
              Rule.condition =
                {
                  Rule.data = [];
                  predicate = Formula.eq (Term.Var "l2.switch") (Term.Str "on");
                };
            };
          ]
      in
      check_bool "on enables" true (has Threat.EC (detect_between (writer "on") checker));
      check_bool "off disables" true (has Threat.DC (detect_between (writer "off") checker)))

let condition_unifier_shared_device =
  test "condition interference unifies shared devices (regression)" (fun () ->
      (* Writer copies a shared temperature sensor's reading into the
         level of a shared dimmer; Checker's condition wants the dimmer
         above 50 while the same sensor reads below 10. Unified, the
         written value IS the cold reading, so the condition can only be
         disabled (DC). Without the unifier the action parameter was a
         free unconstrained variable and the solve was spuriously
         satisfiable (EC). *)
      let writer =
        let act =
          { (dev_action "d1" "setLevel") with Rule.params = [ Term.Var "t1.temperature" ] }
        in
        mk_app "Writer"
          [ mk_input "m" "capability.motionSensor";
            mk_input ~title:(Some "Desk lamp") "d1" "capability.switchLevel";
            mk_input "t1" "capability.temperatureMeasurement" ]
          [ simple_rule "Writer" "W#1" ~trigger_var:"m" ~attr:"motion" ~value:"active"
              ~actions:[ act ] ]
      in
      let checker =
        mk_app "Checker"
          [ mk_input "c" "capability.contactSensor";
            mk_input ~title:(Some "Desk lamp") "d2" "capability.switchLevel";
            mk_input "t2" "capability.temperatureMeasurement";
            mk_input "siren" "capability.alarm" ]
          [
            {
              (simple_rule "Checker" "C#1" ~trigger_var:"c" ~attr:"contact" ~value:"open"
                 ~actions:[ dev_action "siren" "siren" ])
              with
              Rule.condition =
                {
                  Rule.data = [];
                  predicate =
                    Formula.conj
                      [ Formula.gt (Term.Var "d2.level") (Term.Int 50);
                        Formula.lt (Term.Var "t2.temperature") (Term.Int 10) ];
                };
            };
          ]
      in
      let threats = detect_between writer checker in
      check_bool "DC (unified value cannot enable the condition)" true
        (has Threat.DC threats);
      check_bool "no spurious EC" false (has Threat.EC threats))

let symmetric_cache_hits_reverse_direction =
  test "overlap cache is direction-symmetric (regression)" (fun () ->
      (* LightUpTheNight's two rules race and trigger each other, so AR,
         the forward CT edge and the reverse CT edge all ask the pair's
         conditions overlap: the reverse orientation is served from the
         pair's slot, whichever rule comes first *)
      let app = extract_corpus "LightUpTheNight" in
      let p1, p2 =
        match app.Rule.rules with
        | [ r1; r2 ] -> ((app, r1), (app, r2))
        | _ -> Alcotest.fail "two rules"
      in
      let cond_solves reuse p1 p2 =
        let asked = ref 0 in
        let hook (q : Detector.solve_query) solve =
          if q.Detector.q_kind = "cond" then incr asked;
          solve ()
        in
        let c =
          Detector.create
            { Detector.offline_config with Detector.reuse; shared_cache = Some hook }
        in
        check_bool "LT found" true (has Threat.LT (Detector.detect_pair c p1 p2));
        !asked
      in
      check_int "forward: one conditions solve" 1 (cond_solves true p1 p2);
      check_int "reverse: one conditions solve" 1 (cond_solves true p2 p1);
      check_int "without reuse: AR and both CT edges solve" 3 (cond_solves false p1 p2))

let solver_reuse_reduces_calls =
  test "memoization reduces solver calls (Fig 9 green lines)" (fun () ->
      let a = extract_corpus "ComfortTV" and b = extract_corpus "ColdDefender" in
      let run reuse =
        let c = Detector.create { Detector.offline_config with Detector.reuse } in
        List.iter
          (fun p1 -> List.iter (fun p2 -> ignore (Detector.detect_pair c p1 p2)) (tagged b))
          (tagged a);
        c.Detector.solver_calls
      in
      check_bool "reuse <= no-reuse" true (run true <= run false))

let same_rule_skipped =
  test "a rule is not compared against itself" (fun () ->
      let app = extract_corpus "ComfortTV" in
      let c = ctx () in
      let r = List.hd app.Rule.rules in
      check_int "no threats" 0 (List.length (Detector.detect_pair c (app, r) (app, r))))

(* -- classification and channels ------------------------------------------- *)

let classify_titles =
  test "switch classification uses input titles first" (fun () ->
      let app =
        mk_app "X"
          [ mk_input ~title:(Some "Window opener switch") "w" "capability.switch";
            mk_input ~title:(Some "Which TV?") "tv" "capability.switch" ]
          []
      in
      check_bool "window" true (Effects.classify app "w" = Effects.Window_opener);
      check_bool "tv" true (Effects.classify app "tv" = Effects.Tv))

let classify_from_var_name =
  test "switch classification falls back to variable names" (fun () ->
      let app = mk_app "X" [ mk_input "porchLight" "capability.switch" ] [] in
      check_bool "light" true (Effects.classify app "porchLight" = Effects.Light))

let classify_non_switch =
  test "non-switch capabilities classify by capability" (fun () ->
      let app =
        mk_app "X" [ mk_input "l" "capability.lock"; mk_input "t" "capability.thermostat" ] []
      in
      check_bool "lock" true (Effects.classify app "l" = Effects.Lock_device);
      check_bool "thermostat" true (Effects.classify app "t" = Effects.Thermostat_device))

let effects_of_heater =
  test "M_GC: heater on raises temperature and power" (fun () ->
      let app =
        mk_app "X" [ mk_input ~title:(Some "Space heater") "h" "capability.switch" ] []
      in
      let effs = Effects.effects_of_action app (dev_action "h" "on") in
      check_bool "temperature +" true
        (List.mem (Homeguard_st.Env_feature.Temperature, Effects.Incr) effs);
      check_bool "power +" true (List.mem (Homeguard_st.Env_feature.Power, Effects.Incr) effs))

let conflicting_goals_excludes_power =
  test "GC goal overlap excludes power/energy" (fun () ->
      let e1 = [ (Homeguard_st.Env_feature.Power, Effects.Incr) ] in
      let e2 = [ (Homeguard_st.Env_feature.Power, Effects.Decr) ] in
      check_int "no conflict" 0 (List.length (Effects.conflicting_goals e1 e2)))

let attribute_writes_fixed =
  test "attribute writes: fixed values from the registry" (fun () ->
      let app = mk_app "X" [ mk_input "l" "capability.lock" ] [] in
      match Channels.attribute_writes app (dev_action "l" "lock") with
      | [ { Channels.w_attr = "lock"; w_value = Some (Term.Str "locked"); _ } ] -> ()
      | _ -> Alcotest.fail "expected lock write")

let attribute_writes_param =
  test "attribute writes: parameterized values" (fun () ->
      let app = mk_app "X" [ mk_input "d" "capability.switchLevel" ] [] in
      let action =
        { (dev_action "d" "setLevel") with Rule.params = [ Term.Var "lvl" ] }
      in
      match Channels.attribute_writes app action with
      | [ { Channels.w_attr = "level"; w_value = Some (Term.Var "lvl"); _ } ] -> ()
      | _ -> Alcotest.fail "expected level write")

let direction_needs_analysis =
  test "direction_needs reads comparison atoms" (fun () ->
      let f = Formula.gt (Term.Var "s.temperature") (Term.Int 30) in
      check_bool "incr satisfies" true
        (Channels.polarity_can_satisfy f "s.temperature" Effects.Incr);
      check_bool "decr does not" false
        (Channels.polarity_can_satisfy f "s.temperature" Effects.Decr))

let offline_same_device_rules =
  test "offline same-device matching" (fun () ->
      let mk name title =
        mk_app name [ mk_input ~title:(Some title) "sw" "capability.switch" ] []
      in
      let lamp1 = mk "A" "Floor lamp" and lamp2 = mk "B" "Desk lamp bulb" in
      let fan = mk "C" "Ceiling fan" in
      let same a b = Detector.offline_same_device (Detector.device_input a "sw") (Detector.device_input b "sw") in
      check_bool "lamp = lamp" true (same lamp1 lamp2);
      check_bool "lamp <> fan" false (same lamp1 fan))

let tests =
  [
    fig3_actuator_race;
    fig4_covert_triggering;
    fig5_disabling_condition;
    self_disabling_energy;
    loop_triggering_light;
    covert_rule_switch_mode_lock;
    nfc_vs_lock_it;
    let_there_be_dark_races;
    ar_same_trigger_detected;
    ar_disjoint_conditions_not_detected;
    ar_different_devices_not_detected;
    gc_heater_vs_window;
    directional_ct;
    ct_value_mismatch_filtered;
    ec_dc_direction;
    condition_unifier_shared_device;
    symmetric_cache_hits_reverse_direction;
    solver_reuse_reduces_calls;
    same_rule_skipped;
    classify_titles;
    classify_from_var_name;
    classify_non_switch;
    effects_of_heater;
    conflicting_goals_excludes_power;
    attribute_writes_fixed;
    attribute_writes_param;
    direction_needs_analysis;
    offline_same_device_rules;
  ]
