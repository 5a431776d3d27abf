(** Recursive-descent parser for the SmartApp Groovy subset: method
    definitions, command-style calls, trailing closures, named
    arguments, GString interpolation, switch/case, safe navigation. *)

exception Error of string * int
(** Message and 1-based line number. *)

val parse : string -> Ast.program
(** Parse a complete SmartApp source string. *)
