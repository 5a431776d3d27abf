(** Configuration-collection tests: URI codec, instrumentation pass,
    messaging latency model and the recorder. *)

module Config_uri = Homeguard_config.Config_uri
module Instrument = Homeguard_config.Instrument
module Messaging = Homeguard_config.Messaging
module Recorder = Homeguard_config.Recorder
module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term
module Parser = Homeguard_groovy.Parser
module Ast = Homeguard_groovy.Ast
open Helpers

let sample_id = String.make 32 'a'
let other_id = "0123456789abcdef0123456789abcdef"

let uri_roundtrip_basic =
  test "URI encode/decode round-trip" (fun () ->
      let u =
        {
          Config_uri.app_name = "ComfortTV";
          devices = [ ("tv1", sample_id); ("window1", other_id) ];
          values = [ ("threshold1", "30") ];
        }
      in
      check_bool "roundtrip" true (Config_uri.decode (Config_uri.encode u) = u))

let uri_format_matches_paper =
  test "URI format matches Listing 3 / Fig 7a" (fun () ->
      let u =
        { Config_uri.app_name = "A"; devices = [ ("d", sample_id) ]; values = [ ("v", "1") ] }
      in
      check_string "format"
        (Printf.sprintf "http://my.com/appname:A/d:%s/v:1/" sample_id)
        (Config_uri.encode u))

let uri_rejects_garbage =
  test "URI decoding rejects malformed input" (fun () ->
      List.iter
        (fun s ->
          match Config_uri.decode s with
          | exception Config_uri.Malformed _ -> ()
          | _ -> Alcotest.failf "expected Malformed on %s" s)
        [ "https://other.com/appname:A/"; "http://my.com/noappname/"; "http://my.com/devonly" ])

let gen_uri =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let hex_id =
    map
      (fun n -> Homeguard_st.Device.id_of_seed (string_of_int n))
      (int_bound 10_000)
  in
  let* app_name = name in
  let* devices = list_size (int_bound 4) (pair name hex_id) in
  let* values = list_size (int_bound 4) (pair name (map string_of_int (int_bound 999))) in
  return { Config_uri.app_name; devices; values }

let uri_roundtrip_prop =
  qtest "URI round-trip property" gen_uri (fun u ->
      Config_uri.decode (Config_uri.encode u) = u)

(* -- instrumentation -------------------------------------------------------- *)

let comfort_src = (Option.get (Homeguard_corpus.Corpus.find "ComfortTV")).Homeguard_corpus.App_entry.source

let instrumented_parses =
  test "instrumented source parses" (fun () ->
      let src = Instrument.instrument_source ~app_name:"ComfortTV" comfort_src in
      ignore (Parser.parse src))

let instrumented_has_phone_input =
  test "instrumentation adds the patchedphone input (Listing 3 line 3)" (fun () ->
      let prog =
        Parser.parse (Instrument.instrument_source ~app_name:"ComfortTV" comfort_src)
      in
      let inputs = Homeguard_symexec.Extract.scan_inputs prog in
      check_bool "patchedphone present" true
        (List.exists (fun i -> i.Rule.var = "patchedphone") inputs))

let instrumented_updated_collects =
  test "updated() gains the collection preamble" (fun () ->
      let prog =
        Parser.parse (Instrument.instrument_source ~app_name:"ComfortTV" comfort_src)
      in
      match Ast.find_method prog "updated" with
      | None -> Alcotest.fail "no updated method"
      | Some m ->
        let calls =
          Ast.fold_exprs_stmts
            (fun acc e ->
              match e with Ast.Call (None, n, _) -> n :: acc | _ -> acc)
            [] m.Ast.body
        in
        check_bool "collectConfigInfo called" true (List.mem "collectConfigInfo" calls))

let instrumented_helper_sends_sms =
  test "collectConfigInfo helper is appended and sends SMS" (fun () ->
      let prog =
        Parser.parse (Instrument.instrument_source ~app_name:"ComfortTV" comfort_src)
      in
      match Ast.find_method prog "collectConfigInfo" with
      | None -> Alcotest.fail "helper missing"
      | Some m ->
        let calls =
          Ast.fold_exprs_stmts
            (fun acc e ->
              match e with Ast.Call (None, n, _) -> n :: acc | _ -> acc)
            [] m.Ast.body
        in
        check_bool "sendSmsMessage" true (List.mem "sendSmsMessage" calls))

let instrumented_http_variant =
  test "HTTP transport variant posts instead" (fun () ->
      let prog =
        Parser.parse
          (Instrument.instrument_source ~transport:`Http ~app_name:"ComfortTV" comfort_src)
      in
      match Ast.find_method prog "collectConfigInfo" with
      | None -> Alcotest.fail "helper missing"
      | Some m ->
        let calls =
          Ast.fold_exprs_stmts
            (fun acc e ->
              match e with Ast.Call (None, n, _) -> n :: acc | _ -> acc)
            [] m.Ast.body
        in
        check_bool "httpPost" true (List.mem "httpPost" calls))

let instrumentation_preserves_rules =
  test "instrumentation does not change extracted automation rules" (fun () ->
      let before = extract ~name:"ComfortTV" comfort_src in
      let after =
        extract ~name:"ComfortTV"
          (Instrument.instrument_source ~app_name:"ComfortTV" comfort_src)
      in
      (* the collection code adds messaging sinks in updated(), but the
         event-triggered automation rules must be identical *)
      let event_rules app =
        List.filter
          (fun (r : Rule.t) ->
            match r.Rule.trigger with Rule.Event _ -> true | Rule.Scheduled _ -> false)
          app.Rule.rules
      in
      check_bool "same automation rules" true (event_rules before = event_rules after))

let missing_updated_gets_created =
  test "apps without updated() get one" (fun () ->
      let src = {|
input "sw1", "capability.switch"
def installed() { subscribe(sw1, "switch", h) }
def h(evt) { sw1.off() }
|} in
      let prog = Parser.parse (Instrument.instrument_source ~app_name:"X" src) in
      check_bool "updated created" true (Ast.find_method prog "updated" <> None))

let collected_uri_matches =
  test "collected_uri mirrors the instrumented app's output" (fun () ->
      let uri =
        Instrument.collected_uri ~app_name:"ComfortTV"
          ~device_bindings:[ ("tv1", sample_id) ]
          ~value_bindings:[ ("threshold1", "30") ]
      in
      let decoded = Config_uri.decode uri in
      check_string "app" "ComfortTV" decoded.Config_uri.app_name;
      check_bool "device" true (decoded.Config_uri.devices = [ ("tv1", sample_id) ]);
      check_bool "value" true (decoded.Config_uri.values = [ ("threshold1", "30") ]))

(* -- messaging ---------------------------------------------------------------- *)

let sms_latency_band =
  test "SMS latency averages near the paper's 3120ms" (fun () ->
      let m = Messaging.create ~seed:11 () in
      let mean = Messaging.measure_mean m Messaging.Sms ~trials:100 in
      check_bool "in band" true (mean > 2_500.0 && mean < 3_800.0))

let http_latency_band =
  test "HTTP latency averages near the paper's 1058ms" (fun () ->
      let m = Messaging.create ~seed:11 () in
      let mean = Messaging.measure_mean m Messaging.Http ~trials:100 in
      check_bool "in band" true (mean > 800.0 && mean < 1_400.0))

let http_faster_than_sms =
  test "HTTP beats SMS (the paper's transport comparison)" (fun () ->
      let m = Messaging.create ~seed:5 () in
      let sms = Messaging.measure_mean m Messaging.Sms ~trials:50 in
      let http = Messaging.measure_mean m Messaging.Http ~trials:50 in
      check_bool "http < sms" true (http < sms))

let messaging_deterministic =
  test "latencies are reproducible by seed" (fun () ->
      let run () = Messaging.measure_mean (Messaging.create ~seed:3 ()) Messaging.Sms ~trials:20 in
      check_bool "equal" true (run () = run ()))

let loss_injection =
  test "loss injection drops messages" (fun () ->
      let m = Messaging.create ~seed:3 ~loss_per_thousand:500 () in
      let delivered = ref 0 in
      for _ = 1 to 100 do
        match Messaging.send m Messaging.Http "u" with
        | Some _ -> incr delivered
        | None -> ()
      done;
      check_bool "some lost" true (Messaging.lost_count m > 0);
      check_bool "some delivered" true (!delivered > 0))

(* -- recorder ------------------------------------------------------------------ *)

let recorder_same_device =
  test "recorder same-device is id equality" (fun () ->
      let r = Recorder.create () in
      Recorder.record r
        { Recorder.app_name = "A"; devices = [ ("sw", sample_id) ]; values = [] };
      Recorder.record r
        { Recorder.app_name = "B"; devices = [ ("light", sample_id); ("other", other_id) ]; values = [] };
      let appA = { Rule.name = "A"; description = ""; inputs = []; rules = []; uses_web_services = false } in
      let appB = { appA with Rule.name = "B" } in
      let same a1 v1 a2 v2 =
        Recorder.same_device r
          (Homeguard_detector.Detector.device_input a1 v1)
          (Homeguard_detector.Detector.device_input a2 v2)
      in
      check_bool "same id" true (same appA "sw" appB "light");
      check_bool "different id" false (same appA "sw" appB "other"))

let recorder_values_become_constraints =
  test "recorded values become solver constraints" (fun () ->
      let r = Recorder.create () in
      Recorder.record_uri r
        (Config_uri.decode
           (Instrument.collected_uri ~app_name:"A" ~device_bindings:[]
              ~value_bindings:[ ("threshold1", "30"); ("modeName", "Night") ]));
      let appA = { Rule.name = "A"; description = ""; inputs = []; rules = []; uses_web_services = false } in
      let cs = Recorder.app_constraints r appA in
      check_bool "int value" true (List.mem ("threshold1", Term.Int 30) cs);
      check_bool "string value" true (List.mem ("modeName", Term.Str "Night") cs))

let recorder_plain_decimal_only =
  test "record_uri parses plain decimals only, not OCaml literal forms" (fun () ->
      let r = Recorder.create () in
      Recorder.record_uri r
        (Config_uri.decode
           (Instrument.collected_uri ~app_name:"A" ~device_bindings:[]
              ~value_bindings:
                [
                  ("hex", "0x1f");
                  ("bin", "0b10");
                  ("sep", "1_000");
                  ("dec", "30");
                  ("neg", "-5");
                  ("empty", "");
                  ("minus", "-");
                  ("junk", "12a");
                ]));
      let appA =
        { Rule.name = "A"; description = ""; inputs = []; rules = []; uses_web_services = false }
      in
      let cs = Recorder.app_constraints r appA in
      (* "0x1f" means the string the user typed, not 31 *)
      check_bool "hex stays a string" true (List.mem ("hex", Term.Str "0x1f") cs);
      check_bool "binary stays a string" true (List.mem ("bin", Term.Str "0b10") cs);
      check_bool "underscores stay a string" true (List.mem ("sep", Term.Str "1_000") cs);
      check_bool "decimal is numeric" true (List.mem ("dec", Term.Int 30) cs);
      check_bool "negative decimal is numeric" true (List.mem ("neg", Term.Int (-5)) cs);
      check_bool "empty rejected" true (List.mem ("empty", Term.Str "") cs);
      check_bool "bare minus rejected" true (List.mem ("minus", Term.Str "-") cs);
      check_bool "trailing junk rejected" true (List.mem ("junk", Term.Str "12a") cs))

let recorder_update_replaces =
  test "re-recording an app replaces its config" (fun () ->
      let r = Recorder.create () in
      Recorder.record r { Recorder.app_name = "A"; devices = [ ("sw", sample_id) ]; values = [] };
      Recorder.record r { Recorder.app_name = "A"; devices = [ ("sw", other_id) ]; values = [] };
      check_bool "latest id wins" true (Recorder.device_id r "A" "sw" = Some other_id))

let tests =
  [
    uri_roundtrip_basic;
    uri_format_matches_paper;
    uri_rejects_garbage;
    uri_roundtrip_prop;
    instrumented_parses;
    instrumented_has_phone_input;
    instrumented_updated_collects;
    instrumented_helper_sends_sms;
    instrumented_http_variant;
    instrumentation_preserves_rules;
    missing_updated_gets_created;
    collected_uri_matches;
    sms_latency_band;
    http_latency_band;
    http_faster_than_sms;
    messaging_deterministic;
    loss_injection;
    recorder_same_device;
    recorder_values_become_constraints;
    recorder_plain_decimal_only;
    recorder_update_replaces;
  ]
