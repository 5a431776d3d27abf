(** HomeGuard's public facade.

    Offline, {!extract} is the backend rule-extractor service; online, a
    {!home} plays the phone-app role — it receives instrumented-app
    configuration over the messaging channel, detects CAI threats
    against the installed apps and walks the user through the one-time
    decision (paper Fig 6). *)

module Groovy = Homeguard_groovy
module St = Homeguard_st
module Solver = Homeguard_solver
module Rules = Homeguard_rules
module Symexec = Homeguard_symexec
module Detector_lib = Homeguard_detector
module Sim = Homeguard_sim
module Config = Homeguard_config
module Frontend = Homeguard_frontend

val version : string

val extract : ?name:string -> string -> Homeguard_symexec.Extract.result
(** Extract rules from SmartApp source via symbolic execution. *)

type home = {
  recorder : Homeguard_config.Recorder.t;
  flow : Homeguard_frontend.Install_flow.t;
  messaging : Homeguard_config.Messaging.t;
}

val create_home : unit -> home

val begin_install :
  home ->
  ?transport:Homeguard_config.Messaging.transport ->
  app:Homeguard_rules.Rule.smartapp ->
  device_bindings:(string * string) list ->
  value_bindings:(string * string) list ->
  unit ->
  Homeguard_frontend.Install_flow.report * float option
(** Ship the configuration URI over the transport, record it (unless the
    message is lost), and detect threats against the installed apps.
    Returns the user-facing report and the observed latency in ms. *)

val decide : home -> Homeguard_frontend.Install_flow.decision -> unit
val installed : home -> Homeguard_rules.Rule.smartapp list

val retrofit :
  home ->
  (Homeguard_rules.Rule.smartapp * (string * string) list * (string * string) list) list ->
  Homeguard_frontend.Install_flow.report list
(** Backward compatibility (paper §VIII-D3): process a pre-HomeGuard
    home by reinstalling each instrumented app with its existing
    configuration; returns the per-app threat reports. *)
