(** SmartThings capability registry: attributes (with value domains) and
    commands (capability-protected sinks) per device abstraction. *)

type value_domain =
  | Enum of string list
  | Numeric of int * int  (** inclusive bounds *)

type attribute = { attr_name : string; domain : value_domain }

type effect_on_attr = {
  target_attr : string;
  fixed_value : string option;
      (** [None] when the written value is the command's first parameter *)
}

type command = {
  cmd_name : string;
  writes : effect_on_attr option;
  opposite : string option;
}

type t = {
  cap_name : string;
  attributes : attribute list;
  commands : command list;
}

val registry : t list

val find : string -> t option
(** Accepts short ("switch") or qualified ("capability.switch") names. *)

val command_of : t -> string -> command option
val attribute_of : t -> string -> attribute option

val is_capability_command : string -> bool
(** Does any registered capability define this command? (Sink test.) *)

val capabilities_with_command : string -> t list
val capabilities_with_attribute : string -> t list

val attribute_domain : string -> value_domain option
(** Domain of an attribute in any capability declaring it. *)
