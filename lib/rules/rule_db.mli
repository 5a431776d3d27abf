(** Rule recorder: per-home history of installed apps' rules
    (paper §IV-C). *)

type t

val create : unit -> t
val install : t -> Rule.smartapp -> unit
val uninstall : t -> string -> unit

val installed_apps : t -> Rule.smartapp list
(** In install order. *)

val mem : t -> string -> bool
(** Is an app of this name installed? *)
