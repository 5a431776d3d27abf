(** Install-time vetting walkthrough (paper §IV-C, §VII): the full
    deployment path — instrument the app, ship the configuration URI
    over SMS, record it, detect threats against the installed home and
    make the one-time decision.

    Run with: [dune exec examples/custom_vetting.exe] *)

module Homeguard = Homeguard_core.Homeguard
module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Install_flow = Homeguard_frontend.Install_flow
module Instrument = Homeguard_config.Instrument
module Messaging = Homeguard_config.Messaging
module Device = Homeguard_st.Device
open Homeguard_corpus

let app name =
  let e = Option.get (Corpus.find name) in
  (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app

let () =
  print_endline "== Install-time vetting ==\n";

  (* 1. What instrumentation does to an app (paper Listing 3). *)
  let src = (Option.get (Corpus.find "ComfortTV")).App_entry.source in
  let instrumented = Instrument.instrument_source ~app_name:"ComfortTV" src in
  Printf.printf "Instrumented ComfortTV grows from %d to %d bytes; excerpt:\n"
    (String.length src) (String.length instrumented);
  String.split_on_char '\n' instrumented
  |> List.filter (fun l ->
         let has sub =
           let rec go i =
             i + String.length sub <= String.length l
             && (String.sub l i (String.length sub) = sub || go (i + 1))
           in
           go 0
         in
         has "collectConfigInfo" || has "patchedphone" || has "sendSmsMessage")
  |> List.iteri (fun i l -> if i < 6 then Printf.printf "    %s\n" (String.trim l));

  (* 2. A home, with devices bound at install time. *)
  let home = Homeguard.create_home () in
  let tv = Device.id_of_seed "living room tv" in
  let window = Device.id_of_seed "window opener" in
  let tsensor = Device.id_of_seed "thermometer" in
  let weather = Device.id_of_seed "weather tile" in

  let install name ~devices ~values =
    Printf.printf "\n-- installing %s --\n" name;
    let report, latency =
      Homeguard.begin_install home ~transport:Messaging.Sms ~app:(app name)
        ~device_bindings:devices ~value_bindings:values ()
    in
    (match latency with
    | Some ms -> Printf.printf "configuration URI arrived over SMS in %.0f ms\n" ms
    | None -> print_endline "configuration message lost!");
    Printf.printf "rules shown to the user:\n%s\n" (Install_flow.rules_text report);
    Printf.printf "%s\n" (Install_flow.threats_text report);
    List.iter
      (fun c ->
        Printf.printf "chained: %s\n" (Homeguard_detector.Chain.chain_to_string c))
      report.Install_flow.chains;
    report
  in

  (* First app: clean. *)
  let _ =
    install "ComfortTV"
      ~devices:[ ("tv1", tv); ("tSensor", tsensor); ("window1", window) ]
      ~values:[ ("threshold1", "30") ]
  in
  Homeguard.decide home Install_flow.Keep;
  print_endline "user decision: KEEP";

  (* Second app: shares the TV and the window -> threats appear and the
     user rejects. *)
  let report =
    install "ColdDefender"
      ~devices:[ ("tv2", tv); ("wSensor", weather); ("window2", window) ]
      ~values:[]
  in
  let has_ar =
    List.exists
      (fun (t : Homeguard_detector.Threat.t) ->
        t.Homeguard_detector.Threat.category = Homeguard_detector.Threat.AR)
      report.Install_flow.threats
  in
  if has_ar then begin
    Homeguard.decide home Install_flow.Reject;
    print_endline "user decision: REJECT (actuator race on the window)"
  end
  else begin
    Homeguard.decide home Install_flow.Keep;
    print_endline "user decision: KEEP"
  end;

  Printf.printf "\ninstalled apps: %s\n"
    (String.concat ", " (List.map (fun a -> a.Rule.name) (Homeguard.installed home)))
