(** Physical environment dynamics.

    Fig 1's data layer: actuators influence environment features either
    directly or "via the environment (e.g. by heating the home to change
    the measurement reading of a temperature sensor)". Each feature holds
    a scalar value; active influences push it at a rate per minute, and
    absent influences it relaxes toward its baseline. *)

module Env = Homeguard_st.Env_feature

type influence = {
  source : string;  (** device id exerting the influence *)
  feature : Env.t;
  rate_per_minute : float;  (** signed *)
}

type t = {
  mutable values : (Env.t * float) list;
  mutable baselines : (Env.t * float) list;
  mutable influences : influence list;
}

let baselines =
  [
    (Env.Temperature, 72.0);
    (Env.Illuminance, 300.0);
    (Env.Humidity, 45.0);
    (Env.Power, 120.0);
    (Env.Energy, 0.0);
    (Env.Noise, 30.0);
    (Env.Moisture, 0.0);
    (Env.Smoke, 0.0);
    (Env.Carbon_monoxide, 0.0);
  ]

(* fraction of an integrative feature's gap to its baseline recovered
   per minute *)
let relax_per_minute = 0.05

let create () = { values = baselines; baselines; influences = [] }

let value t feature =
  match List.assoc_opt feature t.values with Some v -> v | None -> 0.0

let set_value t feature v =
  t.values <- (feature, v) :: List.remove_assoc feature t.values

(** Change a feature's ambient baseline (e.g. night-time illuminance). *)
let set_baseline t feature v =
  t.baselines <- (feature, v) :: List.remove_assoc feature t.baselines

(** Replace all influences from [source]. *)
let set_influences t source new_influences =
  t.influences <-
    List.filter (fun i -> i.source <> source) t.influences
    @ List.map
        (fun (feature, rate_per_minute) -> { source; feature; rate_per_minute })
        new_influences

let clear_influences t source = set_influences t source []

(** Advance the environment by [dt_ms]. Energy integrates power;
    everything else follows influences plus relaxation. *)
let step t ~dt_ms =
  let minutes = float_of_int dt_ms /. 60_000.0 in
  let influence_rate feature =
    List.fold_left
      (fun acc i -> if i.feature = feature then acc +. i.rate_per_minute else acc)
      0.0 t.influences
  in
  t.values <-
    List.map
      (fun (feature, v) ->
        let baseline =
          match List.assoc_opt feature t.baselines with Some b -> b | None -> 0.0
        in
        match feature with
        | Env.Energy ->
          (* kWh accumulated from instantaneous power (W) *)
          (feature, v +. (value t Env.Power *. minutes /. 60_000.0))
        | Env.Power | Env.Illuminance | Env.Noise ->
          (* instantaneous features: ambient baseline plus the
             contribution of the active sources (light and sound stop the
             moment their source does) *)
          (feature, baseline +. influence_rate feature)
        | Env.Temperature | Env.Humidity | Env.Moisture | Env.Smoke | Env.Carbon_monoxide ->
          (* integrative features drift under influences and relax back *)
          let relax = (baseline -. v) *. relax_per_minute *. minutes in
          (feature, v +. (influence_rate feature *. minutes) +. relax))
      t.values

(** Rates a device class exerts on the environment while active; mirrors
    the detector's M_GC so statically predicted conflicts play out
    dynamically. *)
let rates_of_effects effects =
  List.map
    (fun (feature, polarity) ->
      let magnitude =
        match feature with
        | Env.Temperature -> 0.8
        | Env.Illuminance -> 150.0
        | Env.Humidity -> 1.0
        | Env.Power -> 900.0
        | Env.Energy -> 0.0
        | Env.Noise -> 25.0
        | Env.Moisture -> 1.0
        | Env.Smoke | Env.Carbon_monoxide -> 0.0
      in
      match polarity with
      | Homeguard_detector.Effects.Incr -> (feature, magnitude)
      | Homeguard_detector.Effects.Decr -> (feature, -.magnitude))
    effects
