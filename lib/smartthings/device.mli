(** Devices: 128-bit platform identity, label, supported capabilities. *)

type id = string
(** 32 lowercase hex digits. *)

type t = {
  id : id;
  label : string;
  capabilities : string list;
  device_type : string;
}

val id_of_seed : string -> id
(** Deterministic id derived from a seed string (reproducible tests). *)

val make : ?device_type:string -> label:string -> string list -> t
val attributes : t -> string list
