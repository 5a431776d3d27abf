(** The per-home location object: its modes. *)

type t = {
  mutable modes : string list;
  mutable current_mode : string;
}

val create : unit -> t
(** Modes Home, Away and Night; the current mode is Home. *)

val set_mode : t -> string -> unit
(** Unknown modes are registered on first use. *)
