(** Robustness and determinism: every pipeline stage is total over the
    whole corpus, reproducible, and fails cleanly on hostile input. *)

module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Engine = Homeguard_sim.Engine
module Device = Homeguard_st.Device
open Homeguard_corpus
open Helpers

let extraction_deterministic =
  test "extraction is deterministic" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let a1 = extract ~name:e.App_entry.name e.App_entry.source in
          let a2 = extract ~name:e.App_entry.name e.App_entry.source in
          if a1 <> a2 then Alcotest.failf "%s extracted differently twice" e.App_entry.name)
        Corpus.all)

let interpreter_total_over_corpus =
  test "rule interpreter renders every corpus rule without raising" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let a = extract ~name:e.App_entry.name e.App_entry.source in
          let text = Homeguard_frontend.Rule_interpreter.describe_app a in
          check_bool (e.App_entry.name ^ " rendered") true (String.length text > 0))
        Corpus.all)

let instrumentation_total_over_corpus =
  test "instrumentation handles every corpus app and stays parseable" (fun () ->
      List.iter
        (fun (e : App_entry.t) ->
          let instrumented =
            Homeguard_config.Instrument.instrument_source ~app_name:e.App_entry.name
              e.App_entry.source
          in
          try ignore (Homeguard_groovy.Parser.parse instrumented)
          with ex ->
            Alcotest.failf "%s instrumented source unparseable: %s" e.App_entry.name
              (Printexc.to_string ex))
        Corpus.all)

let detection_symmetric_categories =
  test "undirected categories are found regardless of pair order" (fun () ->
      let a = extract_corpus "ComfortTV" and b = extract_corpus "ColdDefender" in
      let detect p q =
        let ctx = Detector.create Detector.offline_config in
        Detector.detect_pair ctx (p, List.hd p.Rule.rules) (q, List.hd q.Rule.rules)
        |> List.filter (fun (t : Homeguard_detector.Threat.t) ->
               not (Homeguard_detector.Threat.is_directional t.Homeguard_detector.Threat.category))
        |> List.map (fun (t : Homeguard_detector.Threat.t) -> t.Homeguard_detector.Threat.category)
        |> List.sort_uniq compare
      in
      check_bool "same undirected categories both ways" true (detect a b = detect b a))

let detection_deterministic =
  test "pairwise detection is deterministic over the demo apps" (fun () ->
      let apps = List.map (fun (e : App_entry.t) -> extract ~name:e.App_entry.name e.App_entry.source) Apps_demo.all in
      let run () =
        let ctx = Detector.create Detector.offline_config in
        List.map Homeguard_detector.Threat.to_string (Detector.detect_all ctx apps)
      in
      check_bool "two runs agree" true (run () = run ()))

let engine_deterministic_by_seed =
  test "simulation traces are reproducible per seed" (fun () ->
      let run () =
        let motion = Device.make ~label:"M" ~device_type:"motion" [ "motionSensor" ] in
        let lamp = Device.make ~label:"L" ~device_type:"light" [ "switch" ] in
        let t = Engine.create ~seed:5 () in
        Engine.install t (extract_corpus "BrightenMyPath")
          [ ("motion1", Engine.B_device motion); ("pathLights", Engine.B_device lamp) ];
        Engine.stimulate t motion.Device.id "motion" "active";
        Engine.run t ~until_ms:5_000;
        Homeguard_sim.Trace.to_string (Engine.trace t)
      in
      check_bool "same trace" true (run () = run ()))

let engine_seed_changes_jitter =
  test "different seeds change command timing" (fun () ->
      let run seed =
        let motion = Device.make ~label:"M" ~device_type:"motion" [ "motionSensor" ] in
        let lamp = Device.make ~label:"L" ~device_type:"light" [ "switch" ] in
        let t = Engine.create ~seed () in
        Engine.install t (extract_corpus "BrightenMyPath")
          [ ("motion1", Engine.B_device motion); ("pathLights", Engine.B_device lamp) ];
        Engine.stimulate t motion.Device.id "motion" "active";
        Engine.run t ~until_ms:5_000;
        Homeguard_sim.Trace.commands_on (Engine.trace t) "L"
      in
      check_bool "timings differ across seeds" true (run 1 <> run 2))

let hostile_sources_fail_cleanly =
  test "hostile sources raise Extraction_error, never crash" (fun () ->
      List.iter
        (fun src ->
          match Extract.extract_source src with
          | _ -> () (* parsing successfully is also acceptable *)
          | exception Extract.Extraction_error _ -> ())
        [
          "";
          "}{";
          "def f( {";
          "input";
          String.make 10_000 '(';
          "def installed() { subscribe(, , ) }";
          "\"unterminated";
        ])

let unknown_capability_is_harmless =
  test "unknown capabilities degrade gracefully" (fun () ->
      let app =
        extract
          {|
input "gadget", "capability.flooGadget"
def installed() { subscribe(gadget, "sparkle", h) }
def h(evt) { sendPush("sparkled") }
|}
      in
      (* the subscription still yields a (notification) rule *)
      check_int "one rule" 1 (List.length app.Rule.rules))

let json_rejects_mutations =
  test "rule-file decoder rejects corrupted payloads" (fun () ->
      let s = Homeguard_rules.Rule_json.to_string (extract_corpus "ComfortTV") in
      let corrupt = String.map (fun c -> if c = ':' then ';' else c) s in
      match Homeguard_rules.Rule_json.of_string corrupt with
      | exception Homeguard_rules.Rule_json.Decode_error _ -> ()
      | _ -> Alcotest.fail "expected decode failure")

let tests =
  [
    extraction_deterministic;
    interpreter_total_over_corpus;
    instrumentation_total_over_corpus;
    detection_symmetric_categories;
    detection_deterministic;
    engine_deterministic_by_seed;
    engine_seed_changes_jitter;
    hostile_sources_fail_cleanly;
    unknown_capability_is_harmless;
    json_rejects_mutations;
  ]
