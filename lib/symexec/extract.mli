(** Rule extraction: SmartApp source → rules, via symbolic execution of
    lifecycle entry points and event handlers (paper §V). *)

module Rule = Homeguard_rules.Rule

type diagnostics = {
  truncated : bool;  (** some handler exhausted the path budget *)
  unknown_calls : string list;  (** unmodeled APIs encountered *)
}

type result = { app : Rule.smartapp; diags : diagnostics }

exception Extraction_error of string
(** Wraps lexer/parser failures with their location. *)

val scan_inputs : Homeguard_groovy.Ast.program -> Rule.input_decl list
(** All [input] declarations anywhere in the program (also used by the
    instrumentation pass, paper §VII-A). *)

val extract_source : ?name:string -> string -> result
(** Parse and extract. [name] overrides the metadata app name. *)
