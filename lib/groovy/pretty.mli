(** Pretty-printer producing concrete syntax that re-parses to the same
    AST (checked as a round-trip property in the test suite). *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
