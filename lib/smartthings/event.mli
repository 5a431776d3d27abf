(** Platform events broadcast to subscribed apps. *)

type value = V_str of string | V_num of int

type source =
  | Device of Device.id
  | Location
  | Timer of string
  | App of string

type t = { source : source; attribute : string; value : value; at : int }
