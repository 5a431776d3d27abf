(** The discrete-event smart-home simulation engine — the stand-in for
    the paper's SmartThings testbed. Same-time command interleavings are
    perturbed by a seeded jitter so actuator races exhibit their
    nondeterminism across seeds. *)

module Rule = Homeguard_rules.Rule
module Device = Homeguard_st.Device

type binding = B_device of Device.t | B_int of int

type t

val create :
  ?seed:int ->
  ?sample_interval_ms:int ->
  ?mediator:Homeguard_handling.Mediator.t ->
  unit ->
  t

val trace : t -> Trace.t

val env : t -> Env_model.t
(** The home's physical environment. *)

val stimulate : t -> string -> string -> string -> unit
(** [stimulate t device_id attribute value] — inject a state change or
    sensor reading (the test stimulus). *)

val set_mode : t -> string -> unit

val install : t -> Rule.smartapp -> (string * binding) list -> unit
(** Install an extracted app with concrete device/value bindings;
    scheduled rules are primed immediately. *)

val run : t -> until_ms:int -> unit
(** Drain the event queue up to the given simulation time. *)
