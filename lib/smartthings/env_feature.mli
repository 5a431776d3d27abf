(** Measurable home-environment features (paper Fig 1's data layer). *)

type t =
  | Temperature
  | Illuminance
  | Humidity
  | Power
  | Energy
  | Noise
  | Moisture
  | Smoke
  | Carbon_monoxide

val to_string : t -> string

val of_sensor_attribute : string -> t option
(** The feature a sensor attribute measures, if any. *)
