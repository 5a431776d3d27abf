(** Pretty-printer for the SmartApp Groovy subset.

    Prints ASTs back to concrete syntax that re-parses to the same tree
    (modulo desugaring the parser already performs), which the test suite
    checks as a round-trip property. Output is fully parenthesised at
    expression level to avoid re-associating operators. *)

open Ast

let buf_add = Buffer.add_string

let escape_sq s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\'' -> buf_add buf "\\'"
      | '\\' -> buf_add buf "\\\\"
      | '\n' -> buf_add buf "\\n"
      | '\t' -> buf_add buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_dq s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> buf_add buf "\\\""
      | '$' -> buf_add buf "\\$"
      | '\\' -> buf_add buf "\\\\"
      | '\n' -> buf_add buf "\\n"
      | '\t' -> buf_add buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let lit_to_string = function
  | Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Float f ->
    let s = Printf.sprintf "%.6f" f in
    if f < 0.0 then "(" ^ s ^ ")" else s
  | Str s -> Printf.sprintf "'%s'" (escape_sq s)
  | Bool true -> "true"
  | Bool false -> "false"
  | Null -> "null"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"
  | In_op -> "in"
  | Elvis -> "?:"

let rec expr_to_buf buf e =
  match e with
  | Lit l -> buf_add buf (lit_to_string l)
  | Gstring parts ->
    buf_add buf "\"";
    List.iter
      (function
        | Text s -> buf_add buf (escape_dq s)
        | Interp e ->
          buf_add buf "${";
          expr_to_buf buf e;
          buf_add buf "}")
      parts;
    buf_add buf "\""
  | Ident n -> buf_add buf n
  | List_lit es ->
    buf_add buf "[";
    List.iteri
      (fun i e ->
        if i > 0 then buf_add buf ", ";
        expr_to_buf buf e)
      es;
    buf_add buf "]"
  | Map_lit [] -> buf_add buf "[:]"
  | Map_lit kvs ->
    buf_add buf "[";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then buf_add buf ", ";
        buf_add buf k;
        buf_add buf ": ";
        expr_to_buf buf v)
      kvs;
    buf_add buf "]"
  | Range (a, b) ->
    buf_add buf "(";
    expr_to_buf buf a;
    buf_add buf "..";
    expr_to_buf buf b;
    buf_add buf ")"
  | Binop (op, a, b) ->
    buf_add buf "(";
    expr_to_buf buf a;
    buf_add buf (" " ^ binop_to_string op ^ " ");
    expr_to_buf buf b;
    buf_add buf ")"
  | Unop (Not, e) ->
    buf_add buf "!(";
    expr_to_buf buf e;
    buf_add buf ")"
  | Unop (Neg, e) ->
    buf_add buf "-(";
    expr_to_buf buf e;
    buf_add buf ")"
  | Ternary (c, t, f) ->
    buf_add buf "(";
    expr_to_buf buf c;
    buf_add buf " ? ";
    expr_to_buf buf t;
    buf_add buf " : ";
    expr_to_buf buf f;
    buf_add buf ")"
  | Prop (e, n) ->
    primary_to_buf buf e;
    buf_add buf ("." ^ n)
  | Safe_prop (e, n) ->
    primary_to_buf buf e;
    buf_add buf ("?." ^ n)
  | Index (e, i) ->
    primary_to_buf buf e;
    buf_add buf "[";
    expr_to_buf buf i;
    buf_add buf "]"
  | Call (recv, name, args) ->
    (match recv with
    | Some r ->
      primary_to_buf buf r;
      buf_add buf "."
    | None -> ());
    buf_add buf name;
    buf_add buf "(";
    List.iteri
      (fun i a ->
        if i > 0 then buf_add buf ", ";
        arg_to_buf buf a)
      args;
    buf_add buf ")"
  | Closure (params, body) ->
    buf_add buf "{ ";
    if params <> [] then begin
      buf_add buf (String.concat ", " params);
      buf_add buf " -> "
    end;
    List.iteri
      (fun i s ->
        if i > 0 then buf_add buf "; ";
        stmt_to_buf buf 0 ~inline:true s)
      body;
    buf_add buf " }"
  | Assign (lv, rhs) ->
    expr_to_buf buf lv;
    buf_add buf " = ";
    expr_to_buf buf rhs
  | New (cls, args) ->
    buf_add buf ("new " ^ cls ^ "(");
    List.iteri
      (fun i a ->
        if i > 0 then buf_add buf ", ";
        arg_to_buf buf a)
      args;
    buf_add buf ")"

(* Receivers of [.], [?.], [[...]] must be primaries; parenthesise
   anything that is not already atomic. *)
and primary_to_buf buf e =
  match e with
  | Lit _ | Ident _ | Call _ | Prop _ | Safe_prop _ | Index _ | List_lit _ | Map_lit _
  | Gstring _ ->
    expr_to_buf buf e
  | _ ->
    buf_add buf "(";
    expr_to_buf buf e;
    buf_add buf ")"

and arg_to_buf buf = function
  | Pos e -> expr_to_buf buf e
  | Named (k, e) ->
    buf_add buf (k ^ ": ");
    expr_to_buf buf e

and stmt_to_buf buf indent ?(inline = false) s =
  let pad = if inline then "" else String.make (indent * 2) ' ' in
  buf_add buf pad;
  match s with
  | Expr_stmt e -> expr_to_buf buf e
  | Def_var (n, None) -> buf_add buf ("def " ^ n)
  | Def_var (n, Some e) ->
    buf_add buf ("def " ^ n ^ " = ");
    expr_to_buf buf e
  | If (c, t, e) ->
    buf_add buf "if (";
    expr_to_buf buf c;
    buf_add buf ") {\n";
    block_to_buf buf (indent + 1) t;
    buf_add buf (pad ^ "}");
    if e <> [] then begin
      buf_add buf " else {\n";
      block_to_buf buf (indent + 1) e;
      buf_add buf (pad ^ "}")
    end
  | Switch (e, cases) ->
    buf_add buf "switch (";
    expr_to_buf buf e;
    buf_add buf ") {\n";
    List.iter
      (fun case ->
        let cpad = String.make ((indent + 1) * 2) ' ' in
        match case with
        | Case (v, body) ->
          buf_add buf (cpad ^ "case ");
          expr_to_buf buf v;
          buf_add buf ":\n";
          block_to_buf buf (indent + 2) body
        | Default body ->
          buf_add buf (cpad ^ "default:\n");
          block_to_buf buf (indent + 2) body)
      cases;
    buf_add buf (pad ^ "}")
  | Return None -> buf_add buf "return"
  | Return (Some e) ->
    buf_add buf "return ";
    expr_to_buf buf e
  | For_in (x, e, body) ->
    buf_add buf ("for (" ^ x ^ " in ");
    expr_to_buf buf e;
    buf_add buf ") {\n";
    block_to_buf buf (indent + 1) body;
    buf_add buf (pad ^ "}")
  | While (c, body) ->
    buf_add buf "while (";
    expr_to_buf buf c;
    buf_add buf ") {\n";
    block_to_buf buf (indent + 1) body;
    buf_add buf (pad ^ "}")
  | Break -> buf_add buf "break"
  | Continue -> buf_add buf "continue"
  | Try (body, exn, handler) ->
    buf_add buf "try {\n";
    block_to_buf buf (indent + 1) body;
    buf_add buf (pad ^ "} catch (" ^ exn ^ ") {\n");
    block_to_buf buf (indent + 1) handler;
    buf_add buf (pad ^ "}")

and block_to_buf buf indent stmts =
  List.iter
    (fun s ->
      stmt_to_buf buf indent s;
      buf_add buf "\n")
    stmts

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_to_buf buf e;
  Buffer.contents buf

let method_to_string (m : method_def) =
  let buf = Buffer.create 256 in
  buf_add buf ("def " ^ m.name ^ "(" ^ String.concat ", " m.params ^ ") {\n");
  block_to_buf buf 1 m.body;
  buf_add buf "}";
  Buffer.contents buf

let program_to_string prog =
  let buf = Buffer.create 1024 in
  List.iter
    (fun top ->
      (match top with
      | Method m -> buf_add buf (method_to_string m)
      | Top_stmt s -> stmt_to_buf buf 0 s);
      buf_add buf "\n")
    prog;
  Buffer.contents buf
