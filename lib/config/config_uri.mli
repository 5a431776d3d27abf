(** URI encoding of install-time configuration (paper §VII-A, Fig 7a). *)

type t = {
  app_name : string;
  devices : (string * string) list;  (** variable -> 128-bit device id *)
  values : (string * string) list;
}

exception Malformed of string

val encode : t -> string
val decode : string -> t
