(** Simulation traces and the analyzers used to verify threats
    dynamically. *)

type entry =
  | Command of { at : int; app : string; rule : string; device : string; command : string }
  | Attr_change of { at : int; device : string; attribute : string; value : string }
  | Mode_change of { at : int; mode : string }
  | Event_fired of { at : int; source : string; attribute : string; value : string }
  | Suppressed of
      { at : int; app : string; rule : string; device : string; command : string; reason : string }
      (** the mediator suppressed a command before dispatch *)
  | Deferred of
      { at : int; app : string; rule : string; device : string; command : string; until : int }
      (** the mediator deferred a command; it re-enters the queue at [until] *)

type t = entry list

val to_string : t -> string

val commands_on : t -> string -> (int * string) list

val suppressed_commands : t -> string -> (int * string) list
(** Commands the mediator suppressed on the device, in order. *)

val attribute_timeline : t -> string -> string -> (int * string) list
val final_attribute : t -> string -> string -> string option

val flap_count : t -> string -> string -> int
(** Value flips of an attribute (Loop-Triggering witness). *)

val opposite_commands_within :
  t -> string -> window_ms:int -> opposites:(string * string) list -> bool
(** Did contradictory commands land on the device within the window?
    (Actuator-race witness.) The [opposites] pairs are unordered, and an
    entry is never compared against itself. *)
