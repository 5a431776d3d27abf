(** User-facing explanations of detected threats, including the solver's
    witness situation (paper Fig 7b). *)

val describe : Homeguard_detector.Threat.t -> string
val describe_all : Homeguard_detector.Threat.t list -> string
