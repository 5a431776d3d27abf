(** The per-home location object: modes and sun times. *)

type t = {
  mutable modes : string list;
  mutable current_mode : string;
  mutable sunrise_minutes : int;
  mutable sunset_minutes : int;
}

val create : unit -> t
(** Modes Home, Away and Night; the current mode is Home. *)

val set_mode : t -> string -> unit
(** Unknown modes are registered on first use. *)
