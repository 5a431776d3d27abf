(** Measurable home-environment features (paper §II-A, Fig 1).

    Actuators influence these features either directly (a switch changes
    its own attribute) or through the environment (a heater raises the
    temperature a temperature sensor later reports). The detector's
    channel analysis and the simulator's physics both key off this type. *)

type t =
  | Temperature
  | Illuminance
  | Humidity
  | Power  (** instantaneous consumption, W *)
  | Energy  (** cumulative consumption, kWh *)
  | Noise
  | Moisture  (** water presence *)
  | Smoke
  | Carbon_monoxide

let to_string = function
  | Temperature -> "temperature"
  | Illuminance -> "illuminance"
  | Humidity -> "humidity"
  | Power -> "power"
  | Energy -> "energy"
  | Noise -> "noise"
  | Moisture -> "moisture"
  | Smoke -> "smoke"
  | Carbon_monoxide -> "carbon monoxide"

(** Which environment feature does a sensor attribute measure? *)
let of_sensor_attribute = function
  | "temperature" -> Some Temperature
  | "illuminance" -> Some Illuminance
  | "humidity" -> Some Humidity
  | "power" -> Some Power
  | "energy" -> Some Energy
  | "soundPressureLevel" -> Some Noise
  | "water" -> Some Moisture
  | "smoke" -> Some Smoke
  | "carbonMonoxide" -> Some Carbon_monoxide
  | _ -> None
