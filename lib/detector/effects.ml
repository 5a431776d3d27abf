(** Goal analysis: effects of actions on measurable home properties.

    The paper's M_GC mapping (§VI-A1) records how each command of a
    device type affects goal properties such as temperature or
    illuminance, denoted + (increasing), − (decreasing) or # (irrelevant).
    Because many devices are bound through bare [capability.switch], the
    device *class* is derived from the input declaration and app
    description, exactly as the paper's evaluation disambiguates switch
    devices (§VIII-B). *)

module Rule = Homeguard_rules.Rule
module Env = Homeguard_st.Env_feature
module Term = Homeguard_solver.Term

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
  | Other of string  (** capability name for non-switch devices *)

let class_to_string = function
  | Light -> "light"
  | Outlet -> "outlet"
  | Tv -> "tv"
  | Heater -> "heater"
  | Air_conditioner -> "air conditioner"
  | Fan -> "fan"
  | Window_opener -> "window opener"
  | Curtain -> "curtain"
  | Speaker -> "speaker"
  | Camera -> "camera"
  | Coffee_maker -> "coffee maker"
  | Humidifier -> "humidifier"
  | Generic_switch -> "switch"
  | Lock_device -> "lock"
  | Door -> "door"
  | Valve_device -> "valve"
  | Thermostat_device -> "thermostat"
  | Alarm_device -> "alarm"
  | Shade -> "shade"
  | Music_player -> "music player"
  | Other cap -> cap

(* Keyword classification of a switch-bound device from its input
   variable name, title and the app's name/description. Keywords are in
   priority order: the class of the earliest-listed keyword found
   anywhere in the text wins. Function-bearing words come before
   mounting words: a "heater outlet" is a heater that happens to be
   plugged in, so "outlet"/"plug" come last. *)
let keywords =
  Array.of_list
    (List.concat_map
       (fun (words, cls) -> List.map (fun w -> (w, cls)) words)
       [
         ([ "light"; "lamp"; "bulb"; "led" ], Light);
         ([ "tv"; "television" ], Tv);
         ([ "heater"; "heating" ], Heater);
         ([ "air condition"; " ac "; "a/c"; "aircon" ], Air_conditioner);
         ([ "fan" ], Fan);
         ([ "window" ], Window_opener);
         ([ "curtain"; "blind" ], Curtain);
         ([ "speaker"; "sound" ], Speaker);
         ([ "camera" ], Camera);
         ([ "coffee" ], Coffee_maker);
         ([ "humidifier" ], Humidifier);
         ([ "outlet"; "plug" ], Outlet);
       ])

(* Does the lowercase [word] occur in [text] at [i], ignoring ASCII case? *)
let word_at text i word =
  let n = String.length word in
  i + n <= String.length text
  &&
  let rec go k =
    k = n
    || Char.lowercase_ascii (String.unsafe_get text (i + k)) = String.unsafe_get word k
       && go (k + 1)
  in
  go 0

(* One pass over the text, comparing keywords in place. *)
let classify_switch_text text =
  let best = ref (Array.length keywords) in
  for i = 0 to String.length text - 1 do
    for k = 0 to Array.length keywords - 1 do
      if k < !best && word_at text i (fst keywords.(k)) then best := k
    done
  done;
  if !best = Array.length keywords then Generic_switch else snd keywords.(!best)

(* Switch classes by exactly what classification reads — capability,
   var, title, app name and description — so an entry stays right
   across ctxs, homes and app updates. Domain-local because audits run
   detection on worker domains; cleared past [class_table_bound] so a
   long-lived domain cannot grow it without limit. *)
let class_table_bound = 4096

let class_table :
    (string * string * string * string * string, device_class) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let classify_switch (app : Rule.smartapp) cap var =
  (* the input's own name and title are authoritative; the app name and
     description only break ties *)
  let title =
    match List.find_opt (fun i -> i.Rule.var = var) app.Rule.inputs with
    | Some { Rule.title = Some t; _ } -> t
    | _ -> ""
  in
  let table = Domain.DLS.get class_table in
  let key = (cap, var, title, app.Rule.name, app.Rule.description) in
  match Hashtbl.find_opt table key with
  | Some cls -> cls
  | None ->
    let cls =
      match classify_switch_text (var ^ " " ^ title) with
      | Generic_switch ->
        classify_switch_text (String.concat " " [ app.Rule.name; app.Rule.description ])
      | cls -> cls
    in
    if Hashtbl.length table >= class_table_bound then Hashtbl.reset table;
    Hashtbl.add table key cls;
    cls

(** Device class of an input variable given app metadata. *)
let classify (app : Rule.smartapp) var =
  match Rule.capability_of_input app var with
  | None -> Other "unknown"
  | Some cap -> (
    match cap with
    | "lock" -> Lock_device
    | "doorControl" | "garageDoorControl" -> Door
    | "valve" -> Valve_device
    | "thermostat" | "thermostatHeatingSetpoint" | "thermostatCoolingSetpoint" ->
      Thermostat_device
    | "alarm" -> Alarm_device
    | "windowShade" -> Shade
    | "musicPlayer" -> Music_player
    | "switch" | "switchLevel" -> classify_switch app cap var
    | cap -> Other cap)

(* Power draw of switching a device class on. *)
let draws_power = function
  | Light | Outlet | Tv | Heater | Air_conditioner | Fan | Speaker | Camera | Coffee_maker
  | Humidifier | Generic_switch | Music_player ->
    true
  | Window_opener | Curtain | Lock_device | Door | Valve_device | Thermostat_device
  | Alarm_device | Shade | Other _ ->
    false

(* Environment effects of activating a device class. *)
let activation_effects = function
  | Light -> [ (Env.Illuminance, Incr) ]
  | Tv -> [ (Env.Noise, Incr) ]
  | Heater -> [ (Env.Temperature, Incr) ]
  | Air_conditioner -> [ (Env.Temperature, Decr) ]
  | Fan -> [ (Env.Temperature, Decr) ]
  | Window_opener -> [ (Env.Temperature, Decr) ]
  | Curtain | Shade -> [ (Env.Illuminance, Incr) ]
  | Speaker | Music_player -> [ (Env.Noise, Incr) ]
  | Humidifier -> [ (Env.Humidity, Incr) ]
  | Alarm_device -> [ (Env.Noise, Incr) ]
  | Outlet | Camera | Coffee_maker | Generic_switch | Lock_device | Door | Valve_device
  | Thermostat_device | Other _ ->
    []

let negate_effects effects =
  List.map (fun (f, p) -> (f, match p with Incr -> Decr | Decr -> Incr)) effects

(** The M_GC entry of a device action whose target has class [cls]. *)
let device_effects cls (action : Rule.action) : (Env.t * polarity) list =
  let power_on =
    if draws_power cls then [ (Env.Power, Incr); (Env.Energy, Incr) ] else []
  in
  let power_off = if draws_power cls then [ (Env.Power, Decr) ] else [] in
  match action.Rule.command with
  | "on" | "play" -> activation_effects cls @ power_on
  | "off" | "stop" | "pause" -> negate_effects (activation_effects cls) @ power_off
  | "open" -> (
    match cls with
    | Door -> [ (Env.Temperature, Decr); (Env.Noise, Incr) ]
    | Valve_device -> [ (Env.Moisture, Incr) ]
    | Shade | Curtain -> [ (Env.Illuminance, Incr) ]
    | Window_opener -> [ (Env.Temperature, Decr); (Env.Noise, Incr) ]
    | _ -> activation_effects cls)
  | "close" -> (
    match cls with
    | Door -> [ (Env.Temperature, Incr) ]
    | Valve_device -> [ (Env.Moisture, Decr) ]
    | Shade | Curtain -> [ (Env.Illuminance, Decr) ]
    | Window_opener -> [ (Env.Temperature, Incr) ]
    | _ -> negate_effects (activation_effects cls))
  | "heat" | "setHeatingSetpoint" | "emergencyHeat" -> [ (Env.Temperature, Incr) ]
  | "cool" | "setCoolingSetpoint" -> [ (Env.Temperature, Decr) ]
  | "fanOn" | "fanCirculate" -> [ (Env.Temperature, Decr) ]
  | "siren" | "strobe" | "both" | "beep" -> [ (Env.Noise, Incr) ]
  | "setLevel" -> (
    match cls with
    | Light -> [ (Env.Illuminance, Incr) ]
    | Speaker | Music_player -> [ (Env.Noise, Incr) ]
    | _ -> [])
  | _ -> []

(** Environment effects (the M_GC entry) of executing [action] declared
    by [app]. Virtual actuators (mode, messaging) have no entry
    (paper: "virtual actuators that have no direct effect on the goal
    properties are not included"). *)
let effects_of_action (app : Rule.smartapp) (action : Rule.action) =
  match action.Rule.target with
  | Rule.Act_location_mode | Rule.Act_messaging | Rule.Act_http | Rule.Act_hub -> []
  | Rule.Act_device var -> device_effects (classify app var) action

(** Opposite-polarity overlap of two effect lists: the goal properties
    the two actions fight over. Power/energy are deliberately excluded —
    they would flag every on-vs-off pair — but remain available to the
    condition/trigger channels (e.g. the EnergySaver Self-Disabling
    case). *)
let conflicting_goals effs1 effs2 =
  List.filter_map
    (fun (f1, p1) ->
      match f1 with
      | Env.Power | Env.Energy -> None
      | _ -> (
        match List.assoc_opt f1 effs2 with
        | Some p2 when p1 <> p2 -> Some f1
        | _ -> None))
    effs1
