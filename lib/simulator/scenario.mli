(** Pre-built verification scenarios (the paper's install-and-observe
    methodology, §VIII-A). *)

val run_once :
  ?seed:int ->
  ?mediator:Homeguard_handling.Mediator.t ->
  until_ms:int ->
  setup:(Engine.t -> unit) ->
  unit ->
  Trace.t
(** The trace of one seeded run of [setup] until [until_ms]. *)

val race_outcomes :
  ?seeds:int list ->
  ?mediator:(unit -> Homeguard_handling.Mediator.t) ->
  until_ms:int ->
  setup:(Engine.t -> unit) ->
  device:string ->
  attribute:string ->
  unit ->
  (string list * string option) list
(** Distinct (timeline, final state) pairs of the watched attribute
    across seeded runs — the actuator-race nondeterminism measurement.
    [mediator] is a factory: each seeded run gets a fresh monitor so
    deferral and log state never leaks across seeds. *)
