(** Simulator tests: event queue, environment physics, rule execution,
    and dynamic verification of statically detected threats (the role
    the paper's SmartThings testbed plays in §VIII-A). *)

module Engine = Homeguard_sim.Engine
module Event_queue = Homeguard_sim.Event_queue
module Env_model = Homeguard_sim.Env_model
module Trace = Homeguard_sim.Trace
module Scenario = Homeguard_sim.Scenario
module Device = Homeguard_st.Device
module Env = Homeguard_st.Env_feature
open Helpers

(* -- event queue ----------------------------------------------------------- *)

(* the earliest entry, whatever its time *)
let pop q = Event_queue.pop_until q max_int

let queue_ordering =
  test "events pop in time order" (fun () ->
      let q = Event_queue.create () in
      Event_queue.push q 30 "c";
      Event_queue.push q 10 "a";
      Event_queue.push q 20 "b";
      let order = List.init 3 (fun _ -> Option.get (pop q)) in
      Alcotest.(check (list (pair int string))) "order" [ (10, "a"); (20, "b"); (30, "c") ] order)

let queue_fifo_same_time =
  test "same-time events preserve insertion order" (fun () ->
      let q = Event_queue.create () in
      Event_queue.push q 5 "first";
      Event_queue.push q 5 "second";
      check_string "first" "first" (snd (Option.get (pop q)));
      check_string "second" "second" (snd (Option.get (pop q))))

let queue_empty =
  test "empty queue behaviour" (fun () ->
      let q = Event_queue.create () in
      check_bool "pop none" true (pop q = None))

let queue_property =
  qtest "queue pops are globally time-sorted"
    QCheck2.Gen.(list_size (int_range 1 30) (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q t t) times;
      let rec drain acc =
        match pop q with None -> List.rev acc | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let queue_pop_until_bound =
  test "pop_until respects the time bound" (fun () ->
      let q = Event_queue.create () in
      Event_queue.push q 10 "a";
      Event_queue.push q 20 "b";
      Event_queue.push q 30 "c";
      check_bool "pops at the bound" true (Event_queue.pop_until q 20 = Some (10, "a"));
      check_bool "pops exactly at the bound" true (Event_queue.pop_until q 20 = Some (20, "b"));
      check_bool "beyond the bound stays queued" true (Event_queue.pop_until q 20 = None);
      check_bool "a wider bound releases it" true (Event_queue.pop_until q 30 = Some (30, "c")))

let queue_pop_until_fifo =
  test "pop_until keeps FIFO order among same-time entries" (fun () ->
      let q = Event_queue.create () in
      Event_queue.push q 7 "first";
      Event_queue.push q 7 "second";
      Event_queue.push q 7 "third";
      let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop_until q 7))) in
      Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] order)

(* -- environment model ------------------------------------------------------ *)

let env_relaxes_to_baseline =
  test "environment relaxes toward baseline" (fun () ->
      let env = Env_model.create () in
      Env_model.set_value env Env.Temperature 100.0;
      Env_model.step env ~dt_ms:600_000;
      let t = Env_model.value env Env.Temperature in
      check_bool "cooled toward 72" true (t < 100.0 && t > 72.0))

let env_influences_push =
  test "influences push features" (fun () ->
      let env = Env_model.create () in
      Env_model.set_influences env "heater" [ (Env.Temperature, 1.0) ];
      let before = Env_model.value env Env.Temperature in
      Env_model.step env ~dt_ms:600_000;
      check_bool "warmer" true (Env_model.value env Env.Temperature > before);
      Env_model.clear_influences env "heater";
      Env_model.set_value env Env.Temperature 90.0;
      Env_model.step env ~dt_ms:600_000;
      check_bool "relaxing after clear" true (Env_model.value env Env.Temperature < 90.0))

let env_power_instantaneous =
  test "power reflects active influences instantly" (fun () ->
      let env = Env_model.create () in
      Env_model.set_influences env "ac" [ (Env.Power, 900.0) ];
      Env_model.step env ~dt_ms:1000;
      check_bool "power above baseline" true (Env_model.value env Env.Power >= 900.0))

let env_energy_integrates =
  test "energy integrates power over time" (fun () ->
      let env = Env_model.create () in
      let e0 = Env_model.value env Env.Energy in
      Env_model.step env ~dt_ms:3_600_000;
      check_bool "energy grew" true (Env_model.value env Env.Energy > e0))

(* -- engine ------------------------------------------------------------------ *)

let motion = Device.make ~label:"Motion" ~device_type:"motion" [ "motionSensor" ]
let lamp = Device.make ~label:"Lamp" ~device_type:"light" [ "switch" ]

let install_brighten t =
  let app = extract_corpus "BrightenMyPath" in
  Engine.install t app
    [ ("motion1", Engine.B_device motion); ("pathLights", Engine.B_device lamp) ]

let rule_fires_on_event =
  test "a rule fires when its trigger event arrives" (fun () ->
      let t = Engine.create () in
      install_brighten t;
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:5_000;
      check_bool "lamp turned on" true
        (Trace.final_attribute (Engine.trace t) "Lamp" "switch" = Some "on"))

let trigger_value_respected =
  test "trigger value constraints are respected" (fun () ->
      let t = Engine.create () in
      install_brighten t;
      (* motion.inactive must NOT fire the motion.active subscription *)
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:2_000;
      Engine.stimulate t lamp.Device.id "switch" "off";
      Engine.stimulate t motion.Device.id "motion" "inactive";
      Engine.run t ~until_ms:10_000;
      check_bool "lamp stays off" true
        (Trace.final_attribute (Engine.trace t) "Lamp" "switch" = Some "off"))

let condition_blocks_execution =
  test "a false condition blocks the action" (fun () ->
      let t = Engine.create () in
      let app = extract_corpus "SmartSecurity" in
      let siren = Device.make ~label:"Siren" ~device_type:"alarm" [ "alarm" ] in
      Engine.install t app
        [ ("securityMotion", Engine.B_device motion); ("securityAlarm", Engine.B_device siren) ];
      (* mode is Home, not Away -> rule must not fire *)
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:5_000;
      check_bool "no siren" true (Trace.final_attribute (Engine.trace t) "Siren" "alarm" = None))

let delayed_action_fires_late =
  test "runIn-delayed actions execute after the delay" (fun () ->
      let t = Engine.create () in
      let app = extract_corpus "TurnItOnFor5Minutes" in
      let contact = Device.make ~label:"Door" ~device_type:"contact" [ "contactSensor" ] in
      Engine.install t app
        [ ("contact1", Engine.B_device contact); ("timedLight", Engine.B_device lamp) ];
      Engine.stimulate t contact.Device.id "contact" "open";
      Engine.run t ~until_ms:400_000;
      let timeline = Trace.attribute_timeline (Engine.trace t) "Lamp" "switch" in
      (match timeline with
      | [ (t_on, "on"); (t_off, "off") ] ->
        check_bool "off about 300s after on" true (t_off - t_on >= 299_000)
      | _ -> Alcotest.fail "expected on-then-off timeline"))

let user_value_binding =
  test "user-configured thresholds drive conditions" (fun () ->
      let t = Engine.create () in
      let app = extract_corpus "ItsTooHot" in
      let sensor = Device.make ~label:"Thermo" ~device_type:"temp" [ "temperatureMeasurement" ] in
      let ac = Device.make ~label:"AC unit" ~device_type:"ac" [ "switch" ] in
      Engine.install t app
        [ ("tempSensor", Engine.B_device sensor); ("hotLimit", Engine.B_int 85);
          ("acSwitch", Engine.B_device ac) ];
      Engine.stimulate t sensor.Device.id "temperature" "80";
      Engine.run t ~until_ms:3_000;
      check_bool "below limit: AC stays off" true
        (Trace.final_attribute (Engine.trace t) "AC unit" "switch" = None);
      Engine.stimulate t sensor.Device.id "temperature" "90";
      Engine.run t ~until_ms:6_000;
      check_bool "above limit: AC on" true
        (Trace.final_attribute (Engine.trace t) "AC unit" "switch" = Some "on"))

let mode_events_fire_rules =
  test "location-mode changes trigger mode-subscribed rules" (fun () ->
      let t = Engine.create () in
      let app = extract_corpus "GoodNightLights" in
      Engine.install t app [ ("bedtimeLights", Engine.B_device lamp) ];
      Engine.stimulate t lamp.Device.id "switch" "on";
      Engine.run t ~until_ms:1_000;
      Engine.set_mode t "Night";
      Engine.run t ~until_ms:5_000;
      check_bool "lights off in Night mode" true
        (Trace.final_attribute (Engine.trace t) "Lamp" "switch" = Some "off"))

let scheduled_rule_fires =
  test "scheduled rules fire at their time of day" (fun () ->
      let t = Engine.create () in
      let app = extract_corpus "GoodMorningCoffee" in
      let coffee = Device.make ~label:"Coffee maker" ~device_type:"coffee" [ "switch" ] in
      Engine.install t app [ ("coffeeMaker", Engine.B_device coffee) ];
      (* 07:00 = 25_200_000 ms after the simulated midnight start *)
      Engine.run t ~until_ms:26_000_000;
      check_bool "coffee on" true
        (Trace.final_attribute (Engine.trace t) "Coffee maker" "switch" = Some "on"))

(* -- trace analyzers ---------------------------------------------------------- *)

let cmd at app device command = Trace.Command { at; app; rule = app ^ "#1"; device; command }

let opposites_symmetric =
  test "opposite_commands_within is symmetric in the pair order" (fun () ->
      (* the pair is declared (on, off) but the off lands first *)
      let trace = [ cmd 0 "A" "Plug" "off"; cmd 2_000 "B" "Plug" "on" ] in
      check_bool "reversed order still detected" true
        (Trace.opposite_commands_within trace "Plug" ~window_ms:5_000 ~opposites:[ ("on", "off") ]))

let opposites_no_self_match =
  test "opposite_commands_within never compares an entry with itself" (fun () ->
      (* a self-inverse command: one occurrence must not race itself... *)
      let one = [ cmd 0 "A" "Plug" "toggle" ] in
      check_bool "single toggle is not a race" false
        (Trace.opposite_commands_within one "Plug" ~window_ms:5_000
           ~opposites:[ ("toggle", "toggle") ]);
      (* ...but two distinct occurrences do *)
      let two = [ cmd 0 "A" "Plug" "toggle"; cmd 1_000 "B" "Plug" "toggle" ] in
      check_bool "two toggles race" true
        (Trace.opposite_commands_within two "Plug" ~window_ms:5_000
           ~opposites:[ ("toggle", "toggle") ]))

let opposites_window_respected =
  test "opposite_commands_within honours the time window" (fun () ->
      let trace = [ cmd 0 "A" "Plug" "on"; cmd 60_000 "B" "Plug" "off" ] in
      check_bool "outside the window" false
        (Trace.opposite_commands_within trace "Plug" ~window_ms:5_000 ~opposites:[ ("on", "off") ]);
      check_bool "inside a wider window" true
        (Trace.opposite_commands_within trace "Plug" ~window_ms:60_000
           ~opposites:[ ("on", "off") ]))

let attr at device attribute value = Trace.Attr_change { at; device; attribute; value }

let flap_count_counts_flips =
  test "flap_count counts value flips, not changes" (fun () ->
      let trace =
        [ attr 0 "Lamp" "switch" "on"; attr 1 "Lamp" "switch" "on"; attr 2 "Lamp" "switch" "off";
          attr 3 "Lamp" "switch" "off"; attr 4 "Lamp" "switch" "on" ]
      in
      check_int "on,on,off,off,on = 2 flips" 2 (Trace.flap_count trace "Lamp" "switch");
      check_int "empty trace" 0 (Trace.flap_count [] "Lamp" "switch");
      check_int "a single value cannot flip" 0
        (Trace.flap_count [ attr 0 "Lamp" "switch" "on" ] "Lamp" "switch"))

let attribute_timeline_filters =
  test "attribute_timeline filters by device and attribute" (fun () ->
      let trace =
        [ attr 0 "Lamp" "switch" "on"; attr 1 "Fan" "switch" "on"; attr 2 "Lamp" "level" "80";
          attr 3 "Lamp" "switch" "off"; cmd 4 "A" "Lamp" "off" ]
      in
      Alcotest.(check (list (pair int string)))
        "only Lamp.switch changes"
        [ (0, "on"); (3, "off") ]
        (Trace.attribute_timeline trace "Lamp" "switch");
      check_bool "final value" true (Trace.final_attribute trace "Lamp" "switch" = Some "off");
      check_bool "absent attribute" true (Trace.final_attribute trace "Fan" "level" = None))

(* -- dynamic verification of detected threats -------------------------------- *)

let window = Device.make ~label:"Window opener" ~device_type:"window" [ "switch" ]
let tv = Device.make ~label:"TV" ~device_type:"tv" [ "switch" ]
let tsensor = Device.make ~label:"Thermo" ~device_type:"temp" [ "temperatureMeasurement" ]
let weather = Device.make ~label:"Weather" ~device_type:"weather" [ "weatherSensor" ]

let race_setup t =
  Engine.install t (extract_corpus "ComfortTV")
    [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device tsensor);
      ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ];
  Engine.install t (extract_corpus "ColdDefender")
    [ ("tv2", Engine.B_device tv); ("wSensor", Engine.B_device weather);
      ("window2", Engine.B_device window) ];
  Engine.stimulate t tsensor.Device.id "temperature" "31";
  Engine.stimulate t weather.Device.id "weather" "rainy";
  Engine.stimulate t tv.Device.id "switch" "on"

let actuator_race_nondeterministic =
  test "§VIII-A: the Fig 3 race has nondeterministic outcomes across seeds" (fun () ->
      let outcomes =
        Scenario.race_outcomes
          ~seeds:(List.init 12 (fun i -> i + 1))
          ~until_ms:10_000 ~setup:race_setup ~device:"Window opener" ~attribute:"switch" ()
      in
      check_bool "more than one distinct outcome" true (List.length outcomes >= 2))

let race_commands_both_issued =
  test "both racing commands reach the actuator" (fun () ->
      let o =
        Scenario.run_once ~seed:3 ~until_ms:10_000 ~setup:race_setup ()
      in
      let cmds = List.map snd (Trace.commands_on o "Window opener") in
      check_bool "on and off both issued" true (List.mem "on" cmds && List.mem "off" cmds))

let dc_alarm_bypass =
  test "Fig 5 dynamically: NightCare turns the lamp off, disabling BurglarFinder" (fun () ->
      let floor_lamp = Device.make ~label:"Floor lamp" ~device_type:"light" [ "switch" ] in
      let siren = Device.make ~label:"Siren" ~device_type:"alarm" [ "alarm" ] in
      let t = Engine.create () in
      Engine.install t (extract_corpus "BurglarFinder")
        [ ("motion1", Engine.B_device motion); ("floorLamp", Engine.B_device floor_lamp);
          ("alarm1", Engine.B_device siren) ];
      Engine.install t (extract_corpus "NightCare") [ ("lamp5", Engine.B_device floor_lamp) ];
      Engine.set_mode t "Night";
      Engine.run t ~until_ms:1_000;
      Engine.stimulate t floor_lamp.Device.id "switch" "on";
      (* NightCare turns the lamp off after 300s... *)
      Engine.run t ~until_ms:400_000;
      check_bool "lamp was turned off" true
        (Trace.final_attribute (Engine.trace t) "Floor lamp" "switch" = Some "off");
      (* ...so the burglar's motion no longer raises the alarm *)
      Engine.stimulate t motion.Device.id "motion" "active";
      Engine.run t ~until_ms:500_000;
      check_bool "alarm never fired (false negative)" true
        (Trace.final_attribute (Engine.trace t) "Siren" "alarm" = None))

let lt_flapping =
  test "LightUpTheNight flaps when driven by its own illuminance" (fun () ->
      let lux = Device.make ~label:"Lux" ~device_type:"lux" [ "illuminanceMeasurement" ] in
      let lamp = Device.make ~label:"Night lamp" ~device_type:"light" [ "switch" ] in
      let t = Engine.create ~sample_interval_ms:5_000 () in
      Engine.install t (extract_corpus "LightUpTheNight")
        [ ("lightSensor", Engine.B_device lux); ("lights", Engine.B_device lamp) ];
      (* night: both the ambient level and its baseline are dark, so only
         the lamp's own light moves the sensor *)
      Homeguard_sim.Env_model.set_value (Engine.env t) Env.Illuminance 10.0;
      Homeguard_sim.Env_model.set_baseline (Engine.env t) Env.Illuminance 10.0;
      Engine.run t ~until_ms:600_000;
      let flaps = Trace.flap_count (Engine.trace t) "Night lamp" "switch" in
      check_bool "lamp flapped repeatedly" true (flaps >= 3))

let covert_trigger_chain =
  test "Fig 4 dynamically: CatchLiveShow opens the window via ComfortTV" (fun () ->
      let voice = Device.make ~label:"Voice player" ~device_type:"speaker" [ "musicPlayer" ] in
      let t = Engine.create () in
      Engine.install t (extract_corpus "ComfortTV")
        [ ("tv1", Engine.B_device tv); ("tSensor", Engine.B_device tsensor);
          ("threshold1", Engine.B_int 30); ("window1", Engine.B_device window) ];
      Engine.install t (extract_corpus "CatchLiveShow")
        [ ("voicePlayer", Engine.B_device voice); ("tv3", Engine.B_device tv) ];
      Engine.stimulate t tsensor.Device.id "temperature" "31";
      Engine.stimulate t voice.Device.id "status" "playing";
      Engine.run t ~until_ms:10_000;
      check_bool "tv turned on by CatchLiveShow" true
        (Trace.final_attribute (Engine.trace t) "TV" "switch" = Some "on");
      check_bool "window opened covertly" true
        (Trace.final_attribute (Engine.trace t) "Window opener" "switch" = Some "on"))

let tests =
  [
    queue_ordering;
    queue_fifo_same_time;
    queue_empty;
    queue_property;
    queue_pop_until_bound;
    queue_pop_until_fifo;
    env_relaxes_to_baseline;
    env_influences_push;
    env_power_instantaneous;
    env_energy_integrates;
    rule_fires_on_event;
    trigger_value_respected;
    condition_blocks_execution;
    delayed_action_fires_late;
    user_value_binding;
    mode_events_fire_rules;
    scheduled_rule_fires;
    opposites_symmetric;
    opposites_no_self_match;
    opposites_window_respected;
    flap_count_counts_flips;
    attribute_timeline_filters;
    actuator_race_nondeterministic;
    race_commands_both_issued;
    dc_alarm_bypass;
    lt_flapping;
    covert_trigger_chain;
  ]
