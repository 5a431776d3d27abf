(** Handling subsystem tests: §VII decisions, the compiled mediator, and
    the E2 exploitation scenarios replayed under runtime mediation. The
    acceptance bar: the AR flap, the CT covert action, and the LT loop
    must all disappear under the per-category default decisions, and
    mediation off must be byte-identical to an unmediated engine. *)

module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Engine = Homeguard_sim.Engine
module Env_model = Homeguard_sim.Env_model
module Trace = Homeguard_sim.Trace
module Scenario = Homeguard_sim.Scenario
module Device = Homeguard_st.Device
module Env = Homeguard_st.Env_feature
module Install_flow = Homeguard_frontend.Install_flow
module Rule = Homeguard_rules.Rule
open Helpers

let detect_threats apps = Detector.detect_all (Detector.create Detector.offline_config) apps

let default_mediator ?defer_delay_ms ?max_deferrals threats =
  Mediator.create ?defer_delay_ms ?max_deferrals (Policy.create ()) threats

(* -- policy: defaults and stable ids ---------------------------------------- *)

let defaults_per_category =
  test "§VII defaults: AR prioritizes rule1, DC confirms, LT gets two hops" (fun () ->
      let threats = detect_threats [ extract_corpus "ComfortTV"; extract_corpus "ColdDefender" ] in
      let ar = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.AR) threats in
      (match Policy.default_decision ar with
      | Policy.Prioritize { winner } ->
        check_string "winner is rule1" (Policy.rule_key ar.Threat.app1 ar.Threat.rule1) winner
      | _ -> Alcotest.fail "AR default should be Prioritize");
      let dc =
        List.find
          (fun (t : Threat.t) -> t.Threat.category = Threat.DC)
          (detect_threats [ extract_corpus "BurglarFinder"; extract_corpus "NightCare" ])
      in
      check_bool "DC default is Confirm" true (Policy.default_decision dc = Policy.Confirm);
      check_int "LT hop budget" 2 (Policy.default_hop_budget Threat.LT);
      check_int "CT hop budget" 0 (Policy.default_hop_budget Threat.CT))

let threat_id_stability =
  test "threat ids: symmetric categories canonicalize, directional ones do not" (fun () ->
      let comfort = extract_corpus "ComfortTV" and cold = extract_corpus "ColdDefender" in
      let r1 = the_rule comfort and r2 = the_rule cold in
      let ar_a = Threat.make Threat.AR (comfort, r1) (cold, r2) "x" in
      let ar_b = Threat.make Threat.AR (cold, r2) (comfort, r1) "x" in
      check_string "AR id independent of detection order" (Policy.threat_id ar_a)
        (Policy.threat_id ar_b);
      let ct_a = Threat.make Threat.CT (comfort, r1) (cold, r2) "x" in
      let ct_b = Threat.make Threat.CT (cold, r2) (comfort, r1) "x" in
      check_bool "CT id keeps the interference direction" true
        (Policy.threat_id ct_a <> Policy.threat_id ct_b))

let store_explicit_overrides =
  test "the decision store: explicit beats default, keyed by stable id" (fun () ->
      let comfort = extract_corpus "ComfortTV" and cold = extract_corpus "ColdDefender" in
      let t1 = Threat.make Threat.AR (comfort, the_rule comfort) (cold, the_rule cold) "x" in
      let t2 = Threat.make Threat.AR (cold, the_rule cold) (comfort, the_rule comfort) "x" in
      let store = Policy.create () in
      check_bool "no explicit decision yet" true (Policy.explicit store t1 = None);
      Policy.set_by_id store (Policy.threat_id t1) Policy.Allow;
      check_bool "explicit wins" true (Policy.decision_for store t1 = Policy.Allow);
      check_bool "reaches the canonicalized twin too" true
        (Policy.decision_for store t2 = Policy.Allow);
      Policy.set_by_id store (Policy.threat_id t1) (Policy.Block { rule = "a/b" });
      check_bool "set_by_id overwrites" true
        (Policy.decision_for store t1 = Policy.Block { rule = "a/b" }))

(* -- mediator unit behaviour ------------------------------------------------- *)

let gc_block_suppresses_rule =
  test "GC: Block suppresses every command of the losing rule only" (fun () ->
      let comfort = extract_corpus "ComfortTV" and cold = extract_corpus "ColdDefender" in
      let gc = Threat.make Threat.GC (comfort, the_rule comfort) (cold, the_rule cold) "x" in
      let m = default_mediator [ gc ] in
      let query app rule command =
        { Mediator.app; rule; device = "Window"; command; provenance = []; deferrals = 0 }
      in
      (match Mediator.judge m ~at:0 (query "ColdDefender" "ColdDefender#1" "off") with
      | Mediator.Suppress _ -> ()
      | _ -> Alcotest.fail "blocked rule must be suppressed");
      check_bool "winning rule untouched" true
        (Mediator.judge m ~at:0 (query "ComfortTV" "ComfortTV#1" "on") = Mediator.Allow);
      check_int "one suppression logged" 1 (Mediator.stats m).Mediator.suppressed)

let confirm_expires_into_suppression =
  test "Confirm: defers up to max_deferrals, then suppresses" (fun () ->
      let night = extract_corpus "NightCare" and burglar = extract_corpus "BurglarFinder" in
      let dc = Threat.make Threat.DC (night, the_rule night) (burglar, the_rule burglar) "x" in
      let m = default_mediator ~defer_delay_ms:1_000 ~max_deferrals:2 [ dc ] in
      let q deferrals =
        {
          Mediator.app = "NightCare";
          rule = "NightCare#1";
          device = "Lamp";
          command = "off";
          provenance = [];
          deferrals;
        }
      in
      (match Mediator.judge m ~at:0 (q 0) with
      | Mediator.Defer { delay_ms; _ } -> check_int "configured delay" 1_000 delay_ms
      | _ -> Alcotest.fail "first attempt should defer");
      (match Mediator.judge m ~at:2_000 (q 2) with
      | Mediator.Suppress _ -> ()
      | _ -> Alcotest.fail "expired deferrals should suppress");
      Mediator.confirm m (Policy.threat_id dc);
      check_bool "confirmed commands are allowed" true (Mediator.judge m ~at:3_000 (q 0) = Mediator.Allow);
      check_bool "the confirmed allow is logged" true
        (List.exists
           (fun (e : Mediator.log_entry) -> e.Mediator.outcome = "allowed: confirmed")
           (Mediator.log m)))

(* -- E2 scenarios under mediation -------------------------------------------- *)

let window = Device.make ~label:"Window" ~device_type:"window" [ "switch" ]
let tv = Device.make ~label:"TV" ~device_type:"tv" [ "switch" ]
let tsensor = Device.make ~label:"Thermo" ~device_type:"temp" [ "temperatureMeasurement" ]
let weather = Device.make ~label:"Weather" ~device_type:"weather" [ "weatherSensor" ]
let voice = Device.make ~label:"Voice" ~device_type:"speaker" [ "musicPlayer" ]
let motion = Device.make ~label:"Motion" ~device_type:"motion" [ "motionSensor" ]

let install_comfort t =
  Engine.install t (extract_corpus "ComfortTV")
    [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device tsensor);
      ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ]

let race_setup t =
  install_comfort t;
  Engine.install t (extract_corpus "ColdDefender")
    [ ("tv2", Engine.B_device tv); ("wSensor", Engine.B_device weather);
      ("window2", Engine.B_device window) ];
  Engine.stimulate t tsensor.Device.id "temperature" "31";
  Engine.stimulate t weather.Device.id "weather" "rainy";
  Engine.stimulate t tv.Device.id "switch" "on"

let race_threats = lazy (detect_threats [ extract_corpus "ComfortTV"; extract_corpus "ColdDefender" ])

let ar_flap_killed =
  test "AR mediated: flap_count 0 on the contested switch, suppression logged" (fun () ->
      let m = default_mediator (Lazy.force race_threats) in
      let trace =
        Scenario.run_once ~seed:3 ~mediator:m ~until_ms:10_000 ~setup:race_setup ()
      in
      check_int "flap 0" 0 (Trace.flap_count trace "Window" "switch");
      check_bool "no opposite commands" false
        (Trace.opposite_commands_within trace "Window" ~window_ms:10_000
           ~opposites:[ ("on", "off") ]);
      check_bool "winner landed" true (Trace.final_attribute trace "Window" "switch" = Some "on");
      check_bool "loser suppressed in the trace" true (Trace.suppressed_commands trace "Window" <> []);
      check_int "one suppression" 1 (Mediator.stats m).Mediator.suppressed;
      check_bool "enforcement log non-empty" true (Mediator.log m <> []))

let ar_deterministic_across_seeds =
  test "AR mediated: every seed converges to the winner's outcome" (fun () ->
      let outcomes =
        Scenario.race_outcomes
          ~seeds:(List.init 12 (fun i -> i + 1))
          ~mediator:(fun () -> default_mediator (Lazy.force race_threats))
          ~until_ms:10_000 ~setup:race_setup ~device:"Window" ~attribute:"switch" ()
      in
      check_int "a single distinct outcome" 1 (List.length outcomes);
      match outcomes with
      | [ (timeline, final) ] ->
        check_bool "no on/off churn" true (List.length timeline <= 1);
        check_bool "window stays open" true (final = Some "on")
      | _ -> ())

let ar_override_changes_winner =
  test "AR mediated: an explicit Prioritize override flips the winner" (fun () ->
      let threats = Lazy.force race_threats in
      let ar = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.AR) threats in
      let _, k2 = Policy.threat_keys ar in
      let store = Policy.create () in
      (* make the default loser the winner *)
      Policy.set_by_id store (Policy.threat_id ar) (Policy.Prioritize { winner = k2 });
      let m = Mediator.create store threats in
      let trace =
        Scenario.run_once ~seed:3 ~mediator:m ~until_ms:10_000 ~setup:race_setup ()
      in
      check_int "still no flap" 0 (Trace.flap_count trace "Window" "switch");
      (* the default winner's "on" is now the suppressed side: the window
         never opens *)
      check_bool "no on command dispatched" true
        (not (List.mem "on" (List.map snd (Trace.commands_on trace "Window"))));
      check_bool "the on was suppressed" true
        (List.mem "on" (List.map snd (Trace.suppressed_commands trace "Window"))))

let ct_covert_suppressed =
  test "CT mediated: the covert window-open is cut, the overt TV-on is not" (fun () ->
      let threats = detect_threats [ extract_corpus "ComfortTV"; extract_corpus "CatchLiveShow" ] in
      let m = default_mediator threats in
      let t = Engine.create ~mediator:m () in
      install_comfort t;
      Engine.install t (extract_corpus "CatchLiveShow")
        [ ("voicePlayer", Engine.B_device voice); ("tv3", Engine.B_device tv) ];
      Engine.stimulate t tsensor.Device.id "temperature" "31";
      Engine.stimulate t voice.Device.id "status" "playing";
      Engine.run t ~until_ms:10_000;
      let trace = Engine.trace t in
      check_bool "tv still turned on" true (Trace.final_attribute trace "TV" "switch" = Some "on");
      check_bool "window never opened" true (Trace.final_attribute trace "Window" "switch" = None);
      check_bool "the downstream rule was suppressed" true
        (List.exists
           (function Trace.Suppressed { app = "ComfortTV"; _ } -> true | _ -> false)
           trace))

let dc_defer_keeps_alarm_armed =
  test "DC mediated: the lamp-off defers then expires; the alarm fires" (fun () ->
      let lamp = Device.make ~label:"Floor lamp" ~device_type:"light" [ "switch" ] in
      let siren = Device.make ~label:"Siren" ~device_type:"alarm" [ "alarm" ] in
      let threats = detect_threats [ extract_corpus "BurglarFinder"; extract_corpus "NightCare" ] in
      let m = default_mediator threats in
      let t = Engine.create ~mediator:m () in
      Engine.install t (extract_corpus "BurglarFinder")
        [ ("motion1", Engine.B_device motion); ("floorLamp", Engine.B_device lamp);
          ("alarm1", Engine.B_device siren) ];
      Engine.install t (extract_corpus "NightCare") [ ("lamp5", Engine.B_device lamp) ];
      Engine.set_mode t "Night";
      Engine.run t ~until_ms:1_000;
      Engine.stimulate t lamp.Device.id "switch" "on";
      Engine.run t ~until_ms:400_000;
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:500_000;
      let trace = Engine.trace t in
      check_bool "lamp never turned off" true
        (Trace.final_attribute trace "Floor lamp" "switch" = Some "on");
      check_bool "alarm fired" true (Trace.final_attribute trace "Siren" "alarm" <> None);
      let deferred =
        List.length (List.filter (function Trace.Deferred _ -> true | _ -> false) trace)
      in
      check_int "three deferrals before expiry" 3 deferred;
      check_bool "then suppressed" true (Trace.suppressed_commands trace "Floor lamp" <> []))

let dc_confirm_restores_behaviour =
  test "DC mediated: user confirmation lets the lamp-off through again" (fun () ->
      let lamp = Device.make ~label:"Floor lamp" ~device_type:"light" [ "switch" ] in
      let siren = Device.make ~label:"Siren" ~device_type:"alarm" [ "alarm" ] in
      let threats = detect_threats [ extract_corpus "BurglarFinder"; extract_corpus "NightCare" ] in
      let dc = List.find (fun (t : Threat.t) -> t.Threat.category = Threat.DC) threats in
      let m = default_mediator threats in
      Mediator.confirm m (Policy.threat_id dc);
      let t = Engine.create ~mediator:m () in
      Engine.install t (extract_corpus "BurglarFinder")
        [ ("motion1", Engine.B_device motion); ("floorLamp", Engine.B_device lamp);
          ("alarm1", Engine.B_device siren) ];
      Engine.install t (extract_corpus "NightCare") [ ("lamp5", Engine.B_device lamp) ];
      Engine.set_mode t "Night";
      Engine.run t ~until_ms:1_000;
      Engine.stimulate t lamp.Device.id "switch" "on";
      Engine.run t ~until_ms:400_000;
      check_bool "confirmed lamp-off went through" true
        (Trace.final_attribute (Engine.trace t) "Floor lamp" "switch" = Some "off"))

let lt_loop_halts =
  test "LT mediated: the illuminance loop halts within the hop budget" (fun () ->
      let app = extract_corpus "LightUpTheNight" in
      let r1, r2 =
        match app.Rule.rules with
        | [ a; b ] -> (a, b)
        | rs -> Alcotest.failf "expected 2 rules, got %d" (List.length rs)
      in
      let ctx = Detector.create Detector.offline_config in
      let lt =
        List.filter
          (fun (t : Threat.t) -> t.Threat.category = Threat.LT)
          (Detector.detect_pair ctx (app, r1) (app, r2))
      in
      check_bool "LT detected between the two rules" true (lt <> []);
      let run mediator =
        let lux = Device.make ~label:"Lux" ~device_type:"lux" [ "illuminanceMeasurement" ] in
        let lamp = Device.make ~label:"Night lamp" ~device_type:"light" [ "switch" ] in
        let t = Engine.create ~sample_interval_ms:5_000 ?mediator () in
        Engine.install t app
          [ ("lightSensor", Engine.B_device lux); ("lights", Engine.B_device lamp) ];
        Env_model.set_value (Engine.env t) Env.Illuminance 10.0;
        Env_model.set_baseline (Engine.env t) Env.Illuminance 10.0;
        Engine.run t ~until_ms:1_800_000;
        Engine.trace t
      in
      let plain = run None in
      (* the mediator sees ONLY the LT threat: the loop must be stopped by
         the chain breaker, not by AR priorities on the same rule pair *)
      let mediated = run (Some (default_mediator lt)) in
      let budget = Policy.default_hop_budget Threat.LT in
      let plain_flaps = Trace.flap_count plain "Night lamp" "switch" in
      let mediated_flaps = Trace.flap_count mediated "Night lamp" "switch" in
      check_bool "unmediated loop keeps flapping" true (plain_flaps > 2 * budget);
      check_bool "mediated loop halts within the budget" true (mediated_flaps <= 2 * budget);
      check_bool "the breaker actually tripped" true
        (Trace.suppressed_commands mediated "Night lamp" <> []))

let mediation_off_identical =
  test "no mediator and an empty mediator produce byte-identical traces" (fun () ->
      let run mediator =
        Trace.to_string (Scenario.run_once ~seed:5 ?mediator ~until_ms:10_000 ~setup:race_setup ())
      in
      check_string "identical trace text" (run None) (run (Some (default_mediator []))))

(* -- install-flow wiring ------------------------------------------------------ *)

let install_flow_end_to_end =
  test "install flow: propose/keep surfaces recommendations and arms the mediator" (fun () ->
      let flow = Install_flow.create () in
      let r1 = Install_flow.propose flow (extract_corpus "ComfortTV") in
      check_bool "first app: nothing to recommend" true (r1.Install_flow.recommendations = []);
      Install_flow.decide flow Install_flow.Keep;
      let r2 = Install_flow.propose flow (extract_corpus "ColdDefender") in
      check_bool "threats detected" true (r2.Install_flow.threats <> []);
      check_int "one recommendation per threat"
        (List.length r2.Install_flow.threats)
        (List.length r2.Install_flow.recommendations);
      check_bool "handling text rendered" true (Install_flow.handling_text r2 <> "");
      Install_flow.decide flow Install_flow.Keep;
      check_bool "kept threats recorded" true (Install_flow.kept_threats flow <> []);
      (* the flow-compiled mediator enforces the defaults *)
      let o =
        Scenario.run_once ~seed:3 ~mediator:(Install_flow.mediator flow) ~until_ms:10_000
          ~setup:race_setup ()
      in
      check_int "flap killed by the flow's mediator" 0
        (Trace.flap_count o "Window" "switch");
      (* an explicit Allow override disarms that threat *)
      let ar =
        List.find
          (fun (t : Threat.t) -> t.Threat.category = Threat.AR)
          (Install_flow.kept_threats flow)
      in
      Install_flow.set_decision flow (Policy.threat_id ar) Policy.Allow;
      let o2 =
        Scenario.run_once ~seed:3 ~mediator:(Install_flow.mediator flow) ~until_ms:10_000
          ~setup:race_setup ()
      in
      check_bool "race is back under Allow" true
        (Trace.opposite_commands_within o2 "Window" ~window_ms:10_000
           ~opposites:[ ("on", "off") ]))

let tests =
  [
    defaults_per_category;
    threat_id_stability;
    store_explicit_overrides;
    gc_block_suppresses_rule;
    confirm_expires_into_suppression;
    ar_flap_killed;
    ar_deterministic_across_seeds;
    ar_override_changes_winner;
    ct_covert_suppressed;
    dc_defer_keeps_alarm_armed;
    dc_confirm_restores_behaviour;
    lt_loop_halts;
    mediation_off_identical;
    install_flow_end_to_end;
  ]
