(** The one JSON codec: rule files, journal events and verdict-cache
    keys. The parser is total over arbitrary bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no whitespace: the bytes of rule files, journal
    payloads and cache keys. *)

val escape_string : string -> string
(** The body of a JSON string literal, without the quotes. *)

val of_string : string -> (t, string) result
(** Parse one value; trailing input is an error. Decodes [\uXXXX] to
    UTF-8. Arrays and objects nested more than 1000 deep are an error,
    so the recursion stays bounded. Never raises. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_str : t -> string option
val to_number : t -> float option
