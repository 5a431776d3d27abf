(** SmartThings capability registry.

    Capabilities abstract device types (paper Appendix A): each declares
    attributes (readable states with a value domain) and commands
    (capability-protected sinks). The registry below models the
    capabilities the SmartThings public repository exercises, including
    the attribute each command writes and the contradiction relation
    between commands (needed for Actuator-Race detection, A1 = not A2). *)

type value_domain =
  | Enum of string list  (** finite set of symbolic attribute values *)
  | Numeric of int * int  (** bounded integer range (inclusive) *)

type attribute = { attr_name : string; domain : value_domain }

type effect_on_attr = {
  target_attr : string;  (** attribute the command writes *)
  fixed_value : string option;
      (** [Some v] if the command always sets the attribute to enum value
          [v]; [None] if the written value comes from the first command
          parameter (e.g. [setLevel]) *)
}

type command = {
  cmd_name : string;
  writes : effect_on_attr option;
  opposite : string option;  (** name of the contradictory command, if any *)
}

type t = {
  cap_name : string;  (** short name; requested as ["capability." ^ cap_name] *)
  attributes : attribute list;
  commands : command list;
}

let pct = Numeric (0, 100)

let cmd ?writes ?opposite name = { cmd_name = name; writes; opposite }

let set ?v attr = { target_attr = attr; fixed_value = v }

let sensor name attrs = { cap_name = name; attributes = attrs; commands = [] }

let actuator name attrs cmds = { cap_name = name; attributes = attrs; commands = cmds }

(* Registry. Attribute domains follow the SmartThings capabilities
   reference; numeric bounds are the documented or physically sensible
   ranges used to bound solver domains. *)
let registry : t list =
  [
    actuator "switch"
      [ { attr_name = "switch"; domain = Enum [ "on"; "off" ] } ]
      [
        cmd "on" ~writes:(set "switch" ~v:"on") ~opposite:"off";
        cmd "off" ~writes:(set "switch" ~v:"off") ~opposite:"on";
      ];
    actuator "switchLevel"
      [ { attr_name = "level"; domain = pct } ]
      [ cmd "setLevel" ~writes:(set "level") ];
    actuator "lock"
      [ { attr_name = "lock"; domain = Enum [ "locked"; "unlocked"; "unknown" ] } ]
      [
        cmd "lock" ~writes:(set "lock" ~v:"locked") ~opposite:"unlock";
        cmd "unlock" ~writes:(set "lock" ~v:"unlocked") ~opposite:"lock";
      ];
    actuator "doorControl"
      [ { attr_name = "door"; domain = Enum [ "open"; "closed"; "opening"; "closing"; "unknown" ] } ]
      [
        cmd "open" ~writes:(set "door" ~v:"open") ~opposite:"close";
        cmd "close" ~writes:(set "door" ~v:"closed") ~opposite:"open";
      ];
    actuator "garageDoorControl"
      [ { attr_name = "door"; domain = Enum [ "open"; "closed"; "opening"; "closing"; "unknown" ] } ]
      [
        cmd "open" ~writes:(set "door" ~v:"open") ~opposite:"close";
        cmd "close" ~writes:(set "door" ~v:"closed") ~opposite:"open";
      ];
    actuator "windowShade"
      [ { attr_name = "windowShade"; domain = Enum [ "open"; "closed"; "partially open" ] } ]
      [
        cmd "open" ~writes:(set "windowShade" ~v:"open") ~opposite:"close";
        cmd "close" ~writes:(set "windowShade" ~v:"closed") ~opposite:"open";
        cmd "presetPosition" ~writes:(set "windowShade" ~v:"partially open");
      ];
    actuator "valve"
      [ { attr_name = "valve"; domain = Enum [ "open"; "closed" ] } ]
      [
        cmd "open" ~writes:(set "valve" ~v:"open") ~opposite:"close";
        cmd "close" ~writes:(set "valve" ~v:"closed") ~opposite:"open";
      ];
    actuator "alarm"
      [ { attr_name = "alarm"; domain = Enum [ "off"; "siren"; "strobe"; "both" ] } ]
      [
        cmd "off" ~writes:(set "alarm" ~v:"off");
        cmd "siren" ~writes:(set "alarm" ~v:"siren") ~opposite:"off";
        cmd "strobe" ~writes:(set "alarm" ~v:"strobe") ~opposite:"off";
        cmd "both" ~writes:(set "alarm" ~v:"both") ~opposite:"off";
      ];
    actuator "thermostat"
      [
        { attr_name = "temperature"; domain = Numeric (-40, 150) };
        { attr_name = "heatingSetpoint"; domain = Numeric (35, 95) };
        { attr_name = "coolingSetpoint"; domain = Numeric (35, 95) };
        { attr_name = "thermostatMode"; domain = Enum [ "auto"; "heat"; "cool"; "off"; "emergency heat" ] };
        { attr_name = "thermostatFanMode"; domain = Enum [ "auto"; "on"; "circulate" ] };
        {
          attr_name = "thermostatOperatingState";
          domain = Enum [ "heating"; "cooling"; "idle"; "fan only" ];
        };
      ]
      [
        cmd "setHeatingSetpoint" ~writes:(set "heatingSetpoint");
        cmd "setCoolingSetpoint" ~writes:(set "coolingSetpoint");
        cmd "setThermostatMode" ~writes:(set "thermostatMode");
        cmd "setThermostatFanMode" ~writes:(set "thermostatFanMode");
        cmd "heat" ~writes:(set "thermostatMode" ~v:"heat") ~opposite:"cool";
        cmd "cool" ~writes:(set "thermostatMode" ~v:"cool") ~opposite:"heat";
        cmd "auto" ~writes:(set "thermostatMode" ~v:"auto");
        cmd "off" ~writes:(set "thermostatMode" ~v:"off");
        cmd "fanOn" ~writes:(set "thermostatFanMode" ~v:"on") ~opposite:"fanAuto";
        cmd "fanAuto" ~writes:(set "thermostatFanMode" ~v:"auto") ~opposite:"fanOn";
        cmd "fanCirculate" ~writes:(set "thermostatFanMode" ~v:"circulate");
      ];
    actuator "thermostatHeatingSetpoint"
      [ { attr_name = "heatingSetpoint"; domain = Numeric (35, 95) } ]
      [ cmd "setHeatingSetpoint" ~writes:(set "heatingSetpoint") ];
    actuator "thermostatCoolingSetpoint"
      [ { attr_name = "coolingSetpoint"; domain = Numeric (35, 95) } ]
      [ cmd "setCoolingSetpoint" ~writes:(set "coolingSetpoint") ];
    actuator "colorControl"
      [
        { attr_name = "hue"; domain = pct };
        { attr_name = "saturation"; domain = pct };
        { attr_name = "color"; domain = Enum [ "red"; "green"; "blue"; "white"; "yellow"; "purple" ] };
      ]
      [
        cmd "setHue" ~writes:(set "hue");
        cmd "setSaturation" ~writes:(set "saturation");
        cmd "setColor" ~writes:(set "color");
      ];
    actuator "colorTemperature"
      [ { attr_name = "colorTemperature"; domain = Numeric (1000, 30000) } ]
      [ cmd "setColorTemperature" ~writes:(set "colorTemperature") ];
    actuator "musicPlayer"
      [
        { attr_name = "status"; domain = Enum [ "playing"; "paused"; "stopped" ] };
        { attr_name = "level"; domain = pct };
        { attr_name = "mute"; domain = Enum [ "muted"; "unmuted" ] };
      ]
      [
        cmd "play" ~writes:(set "status" ~v:"playing") ~opposite:"stop";
        cmd "pause" ~writes:(set "status" ~v:"paused") ~opposite:"play";
        cmd "stop" ~writes:(set "status" ~v:"stopped") ~opposite:"play";
        cmd "setLevel" ~writes:(set "level");
        cmd "mute" ~writes:(set "mute" ~v:"muted") ~opposite:"unmute";
        cmd "unmute" ~writes:(set "mute" ~v:"unmuted") ~opposite:"mute";
        cmd "playText";
        cmd "playTrack";
      ];
    actuator "speechSynthesis" [] [ cmd "speak" ];
    actuator "tone" [] [ cmd "beep" ];
    actuator "notification" [] [ cmd "deviceNotification" ];
    actuator "imageCapture"
      [ { attr_name = "image"; domain = Enum [ "captured"; "idle" ] } ]
      [ cmd "take" ~writes:(set "image" ~v:"captured") ];
    actuator "polling" [] [ cmd "poll" ];
    actuator "refresh" [] [ cmd "refresh" ];
    actuator "momentary" [] [ cmd "push" ];
    actuator "timedSession"
      [ { attr_name = "sessionStatus"; domain = Enum [ "running"; "stopped"; "paused"; "canceled" ] } ]
      [
        cmd "start" ~writes:(set "sessionStatus" ~v:"running") ~opposite:"stop";
        cmd "stop" ~writes:(set "sessionStatus" ~v:"stopped") ~opposite:"start";
        cmd "pause" ~writes:(set "sessionStatus" ~v:"paused");
        cmd "cancel" ~writes:(set "sessionStatus" ~v:"canceled");
      ];
    (* sensors *)
    sensor "temperatureMeasurement" [ { attr_name = "temperature"; domain = Numeric (-40, 150) } ];
    sensor "relativeHumidityMeasurement" [ { attr_name = "humidity"; domain = pct } ];
    sensor "illuminanceMeasurement" [ { attr_name = "illuminance"; domain = Numeric (0, 100000) } ];
    sensor "motionSensor" [ { attr_name = "motion"; domain = Enum [ "active"; "inactive" ] } ];
    sensor "contactSensor" [ { attr_name = "contact"; domain = Enum [ "open"; "closed" ] } ];
    sensor "presenceSensor" [ { attr_name = "presence"; domain = Enum [ "present"; "not present" ] } ];
    sensor "accelerationSensor" [ { attr_name = "acceleration"; domain = Enum [ "active"; "inactive" ] } ];
    sensor "waterSensor" [ { attr_name = "water"; domain = Enum [ "dry"; "wet" ] } ];
    sensor "smokeDetector"
      [ { attr_name = "smoke"; domain = Enum [ "clear"; "detected"; "tested" ] } ];
    sensor "carbonMonoxideDetector"
      [ { attr_name = "carbonMonoxide"; domain = Enum [ "clear"; "detected"; "tested" ] } ];
    sensor "powerMeter" [ { attr_name = "power"; domain = Numeric (0, 100000) } ];
    sensor "energyMeter" [ { attr_name = "energy"; domain = Numeric (0, 1000000) } ];
    sensor "battery" [ { attr_name = "battery"; domain = pct } ];
    sensor "button" [ { attr_name = "button"; domain = Enum [ "pushed"; "held" ] } ];
    sensor "sleepSensor" [ { attr_name = "sleeping"; domain = Enum [ "sleeping"; "not sleeping" ] } ];
    sensor "soundPressureLevel" [ { attr_name = "soundPressureLevel"; domain = Numeric (0, 200) } ];
    sensor "stepSensor" [ { attr_name = "steps"; domain = Numeric (0, 100000) } ];
    sensor "threeAxis" [ { attr_name = "threeAxis"; domain = Numeric (-1000, 1000) } ];
    sensor "beacon" [ { attr_name = "presence"; domain = Enum [ "present"; "not present" ] } ];
    (* models the SmartWeather Station Tile's weather summary *)
    sensor "weatherSensor"
      [ { attr_name = "weather"; domain = Enum [ "sunny"; "cloudy"; "rainy"; "snow" ] } ];
    (* non-standard device type used by Feed My Pet (paper §VIII-B added
       it to the capability list after the special case surfaced) *)
    actuator "petfeederShield"
      [ { attr_name = "feeder"; domain = Enum [ "feeding"; "idle" ] } ]
      [ cmd "feed" ~writes:(set "feeder" ~v:"feeding") ];
    sensor "lockCodes" [ { attr_name = "codeReport"; domain = Numeric (0, 10000) } ];
  ]

(** Look up a capability by short name ("switch") or qualified name
    ("capability.switch"). *)
let find name =
  let short =
    match String.index_opt name '.' with
    | Some i when String.sub name 0 i = "capability" ->
      String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  List.find_opt (fun c -> c.cap_name = short) registry

(** [command_of cap name] looks up a command of capability [cap]. *)
let command_of cap name = List.find_opt (fun c -> c.cmd_name = name) cap.commands

(** [attribute_of cap name] looks up an attribute of capability [cap]. *)
let attribute_of cap name = List.find_opt (fun a -> a.attr_name = name) cap.attributes

(** Does some registered capability define a command with this name?
    Used by the symbolic executor to recognise sinks. *)
let is_capability_command name =
  List.exists (fun c -> List.exists (fun cm -> cm.cmd_name = name) c.commands) registry

(** Capabilities that define the given command name. *)
let capabilities_with_command name =
  List.filter (fun c -> List.exists (fun cm -> cm.cmd_name = name) c.commands) registry

(** Capabilities that define the given attribute name. *)
let capabilities_with_attribute name =
  List.filter (fun c -> List.exists (fun a -> a.attr_name = name) c.attributes) registry

(** Value domain of attribute [attr] in any capability declaring it;
    domains agree across capabilities by construction. *)
let attribute_domain attr =
  match capabilities_with_attribute attr with
  | [] -> None
  | cap :: _ -> Option.map (fun a -> a.domain) (attribute_of cap attr)
