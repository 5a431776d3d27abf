(** HomeGuard: the public facade tying the pipeline together.

    Offline: {!extract} turns SmartApp source into rules (backend-server
    role). Online: a {!home} receives instrumented-app configuration over
    the messaging channel, detects CAI threats against installed apps and
    walks the user through the one-time decision (phone-app role). *)

module Groovy = Homeguard_groovy
module St = Homeguard_st
module Solver = Homeguard_solver
module Rules = Homeguard_rules
module Symexec = Homeguard_symexec
module Detector_lib = Homeguard_detector
module Sim = Homeguard_sim
module Config = Homeguard_config
module Frontend = Homeguard_frontend

let version = "1.0.0"

(** Extract rules from SmartApp source (the rule-extractor service). *)
let extract ?name src = Homeguard_symexec.Extract.extract_source ?name src

(** A deployed home: recorder + rule database + allowed list. *)
type home = {
  recorder : Homeguard_config.Recorder.t;
  flow : Homeguard_frontend.Install_flow.t;
  messaging : Homeguard_config.Messaging.t;
}

let create_home () =
  let recorder = Homeguard_config.Recorder.create () in
  {
    recorder;
    flow =
      Homeguard_frontend.Install_flow.create
        ~detector_config:(Homeguard_config.Recorder.detector_config recorder) ();
    messaging = Homeguard_config.Messaging.create ();
  }

(** Full install pipeline for one app: instrumented configuration is
    shipped over [transport], recorded, and threats are detected against
    the already-installed apps. Returns the user-facing report and the
    observed messaging latency in milliseconds. *)
let begin_install home ?(transport = Homeguard_config.Messaging.Sms)
    ~(app : Homeguard_rules.Rule.smartapp) ~device_bindings ~value_bindings () =
  let uri =
    Homeguard_config.Instrument.collected_uri ~app_name:app.Homeguard_rules.Rule.name
      ~device_bindings
      ~value_bindings:(List.map (fun (v, s) -> (v, s)) value_bindings)
  in
  let latency = Homeguard_config.Messaging.send home.messaging transport uri in
  (match latency with
  | Some _ ->
    Homeguard_config.Recorder.record_uri home.recorder (Homeguard_config.Config_uri.decode uri)
  | None -> ());
  let report = Homeguard_frontend.Install_flow.propose home.flow app in
  (report, latency)

let decide home decision = Homeguard_frontend.Install_flow.decide home.flow decision

let installed home = Homeguard_frontend.Install_flow.installed_apps home.flow

(** Backward compatibility (paper §VIII-D3): retrofit a home whose apps
    predate HomeGuard. Reinstalling the instrumented versions re-runs
    [updated()], which ships each app's existing configuration; every
    app is vetted against those already processed and kept (the user
    already lives with these apps), and the combined reports tell the
    user which latent threats their home has been carrying. *)
let retrofit home apps_with_bindings =
  List.map
    (fun (app, device_bindings, value_bindings) ->
      let report, _ = begin_install home ~app ~device_bindings ~value_bindings () in
      decide home Homeguard_frontend.Install_flow.Keep;
      report)
    apps_with_bindings
