(** Goal analysis: device classes and the M_GC effect map from commands
    to measurable home properties (paper §VI-A1). *)

module Rule = Homeguard_rules.Rule
module Env = Homeguard_st.Env_feature

type polarity = Incr | Decr

type device_class =
  | Light
  | Outlet
  | Tv
  | Heater
  | Air_conditioner
  | Fan
  | Window_opener
  | Curtain
  | Speaker
  | Camera
  | Coffee_maker
  | Humidifier
  | Generic_switch
  | Lock_device
  | Door
  | Valve_device
  | Thermostat_device
  | Alarm_device
  | Shade
  | Music_player
  | Other of string

val class_to_string : device_class -> string

val classify_switch_text : string -> device_class
(** Keyword classification of free text describing a switch device:
    one case-insensitive pass, no allocation. *)

val classify : Rule.smartapp -> string -> device_class
(** Class of an input variable: by capability, with switches
    disambiguated by variable name and title first, app text second.
    Switch classes are memoized in a bounded domain-local table keyed
    by capability, var, title, app name and description. *)

val effects_of_action : Rule.smartapp -> Rule.action -> (Env.t * polarity) list
(** The M_GC entry for one action; empty for virtual actuators. *)

val device_effects : device_class -> Rule.action -> (Env.t * polarity) list
(** The M_GC entry for a device action whose target has the given
    class. *)

val conflicting_goals :
  (Env.t * polarity) list -> (Env.t * polarity) list -> Env.t list
(** Goal properties two effect sets push in opposite directions
    (power/energy excluded — every on/off pair would conflict). *)
