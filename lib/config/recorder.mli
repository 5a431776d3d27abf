(** Per-home configuration recorder: device-id bindings and user values
    for each installed app; backs the online (exact-identity) detector
    configuration. *)

module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term

type app_config = {
  app_name : string;
  devices : (string * string) list;
  values : (string * Term.t) list;
}

type t

val create : unit -> t
val record : t -> app_config -> unit

val decimal_of_string_opt : string -> int option
(** Plain decimal (["-"? digits]) only — rejects the OCaml literal
    forms ["0x1f"], ["0b10"], ["1_000"] that [int_of_string_opt]
    accepts. *)

(** Values parsing as plain decimal integers become [Term.Int];
    everything else stays [Term.Str]. *)
val record_uri : t -> Config_uri.t -> unit
val find : t -> string -> app_config option
val device_id : t -> string -> string -> string option

val same_device :
  t -> Homeguard_detector.Detector.device_input -> Homeguard_detector.Detector.device_input -> bool
(** The online device relation: both descriptors' vars are bound to the
    same 128-bit device id, looked up by [di_app]'s name and [di_var].
    The descriptors' capability fields are not read, so a var that is
    not a declared capability input still matches when the received
    configuration bound it to a device. *)

val app_constraints : t -> Rule.smartapp -> (string * Term.t) list
val detector_config : t -> Homeguard_detector.Detector.config
