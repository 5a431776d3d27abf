(** Physical environment dynamics: actuator influences drive measurable
    features; integrative features relax toward baselines, instantaneous
    ones (power, illuminance, noise) follow their sources directly. *)

module Env = Homeguard_st.Env_feature

type t

val create : unit -> t
val value : t -> Env.t -> float
val set_value : t -> Env.t -> float -> unit
val set_baseline : t -> Env.t -> float -> unit
val set_influences : t -> string -> (Env.t * float) list -> unit
val clear_influences : t -> string -> unit
val step : t -> dt_ms:int -> unit

val rates_of_effects :
  (Env.t * Homeguard_detector.Effects.polarity) list -> (Env.t * float) list
(** Influence rates matching the detector's M_GC map, so statically
    predicted conflicts play out dynamically. *)
