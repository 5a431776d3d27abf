(** The discrete-event smart-home simulation engine — the stand-in for
    the paper's SmartThings testbed. Same-time command interleavings are
    perturbed by a seeded jitter so actuator races exhibit their
    nondeterminism across seeds. *)

module Rule = Homeguard_rules.Rule
module Device = Homeguard_st.Device
module Location = Homeguard_st.Location

type binding = B_device of Device.t | B_int of int | B_str of string

type installed_app = { app : Rule.smartapp; bindings : (string * binding) list }

type device_state = {
  device : Device.t;
  mutable attrs : (string * string) list;
}

type provenance = (string * string) list
(** Causal (app name, rule id) hops, oldest first, capped in length. *)

type pending =
  | Deliver of
      { source : string option; attribute : string; value : string; prov : provenance }
  | Execute of
      { iapp : installed_app; rule : Rule.t; action : Rule.action; prov : provenance;
        deferrals : int }
  | Sample

type t = {
  devices : (string, device_state) Hashtbl.t;
  env : Env_model.t;
  location : Location.t;
  queue : pending Event_queue.t;
  mutable now : int;
  mutable trace_rev : Trace.entry list;
  mutable apps : installed_app list;
  mutable rng : int;
  sample_interval_ms : int;
  mediator : Homeguard_handling.Mediator.t option;
  feature_prov : (Homeguard_st.Env_feature.t, provenance) Hashtbl.t;
  influence_feats : (string, Homeguard_st.Env_feature.t list) Hashtbl.t;
  mutable sample_scheduled : bool;
}

val create :
  ?seed:int ->
  ?sample_interval_ms:int ->
  ?mediator:Homeguard_handling.Mediator.t ->
  unit ->
  t

val trace : t -> Trace.t

val stimulate : t -> string -> string -> string -> unit
(** [stimulate t device_id attribute value] — inject a state change or
    sensor reading (the test stimulus). *)

val set_mode : ?prov:provenance -> t -> string -> unit

val install : t -> Rule.smartapp -> (string * binding) list -> unit
(** Install an extracted app with concrete device/value bindings;
    scheduled rules are primed immediately. *)

val run : t -> until_ms:int -> unit
(** Drain the event queue up to the given simulation time. *)
