(** Recursive-descent parser for the SmartApp Groovy subset.

    The grammar follows Groovy's statement/expression structure closely
    enough that every SmartApp idiom in the corpus parses: command-style
    calls without parentheses ([input "tv1", "capability.switch",
    title: "..."]), trailing closures ([devices.each { it.on() }]),
    named arguments, GString interpolation (re-entered via
    {!parse_expr_string}), ternary/elvis, switch/case, and safe
    navigation. *)

exception Error of string * int  (** message, line *)

type state = { toks : Lexer.located array; mutable pos : int }

let error st fmt =
  let line = if st.pos < Array.length st.toks then st.toks.(st.pos).line else 0 in
  Printf.ksprintf (fun m -> raise (Error (m, line))) fmt

let peek st = st.toks.(st.pos).tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok else Token.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let eat st tok =
  if peek st = tok then advance st
  else error st "expected %s but found %s" (Token.to_string tok) (Token.to_string (peek st))

let skip_separators st =
  while peek st = Token.NEWLINE || peek st = Token.SEMI do
    advance st
  done

let skip_newlines st =
  while peek st = Token.NEWLINE do
    advance st
  done

(* Does this token start an expression? Used to recognise command-style
   calls: [IDENT expr, expr, ...]. LBRACKET is deliberately excluded:
   [a[0]] is indexing, not a command call with a list argument. *)
let starts_expression = function
  | Token.INT _ | Token.FLOAT _ | Token.STRING _ | Token.DSTRING _
  | Token.IDENT _ | Token.KW_TRUE | Token.KW_FALSE | Token.KW_NULL
  | Token.KW_NEW ->
    true
  | _ -> false

let rec parse_program st =
  let rec go acc =
    skip_separators st;
    match peek st with
    | Token.EOF -> List.rev acc
    | _ ->
      let top = parse_top st in
      go (top :: acc)
  in
  go []

and parse_top st =
  match (peek st, peek2 st) with
  | Token.KW_DEF, Token.IDENT _ when st.toks.(st.pos + 2).tok = Token.LPAREN ->
    Ast.Method (parse_method st)
  | _ -> Ast.Top_stmt (parse_statement st)

and parse_method st =
  eat st Token.KW_DEF;
  let name =
    match peek st with
    | Token.IDENT n ->
      advance st;
      n
    | t -> error st "expected method name, found %s" (Token.to_string t)
  in
  eat st Token.LPAREN;
  let params = parse_param_list st in
  eat st Token.RPAREN;
  skip_newlines st;
  let body = parse_block st in
  { Ast.name; params; body }

and parse_param_list st =
  if peek st = Token.RPAREN then []
  else
    let rec go acc =
      (* optional 'def' before a parameter name *)
      if peek st = Token.KW_DEF then advance st;
      match peek st with
      | Token.IDENT n ->
        advance st;
        (* ignore default values: [name = expr] *)
        let () =
          if peek st = Token.ASSIGN then begin
            advance st;
            ignore (parse_expression st)
          end
        in
        if peek st = Token.COMMA then begin
          advance st;
          go (n :: acc)
        end
        else List.rev (n :: acc)
      | t -> error st "expected parameter name, found %s" (Token.to_string t)
    in
    go []

and parse_block st =
  eat st Token.LBRACE;
  let stmts = parse_statements_until st Token.RBRACE in
  eat st Token.RBRACE;
  stmts

and parse_statements_until st closer =
  let rec go acc =
    skip_separators st;
    if peek st = closer || peek st = Token.EOF then List.rev acc
    else
      let s = parse_statement st in
      go (s :: acc)
  in
  go []

and parse_block_or_stmt st =
  skip_newlines st;
  if peek st = Token.LBRACE then parse_block st else [ parse_statement st ]

and parse_statement st =
  match peek st with
  | Token.KW_DEF -> (
    advance st;
    match peek st with
    | Token.IDENT n -> (
      advance st;
      match peek st with
      | Token.ASSIGN ->
        advance st;
        skip_newlines st;
        let e = parse_expression st in
        Ast.Def_var (n, Some e)
      | _ -> Ast.Def_var (n, None))
    | t -> error st "expected variable name after 'def', found %s" (Token.to_string t))
  | Token.KW_IF -> parse_if st
  | Token.KW_SWITCH -> parse_switch st
  | Token.KW_RETURN -> (
    advance st;
    match peek st with
    | Token.NEWLINE | Token.SEMI | Token.RBRACE | Token.EOF -> Ast.Return None
    | _ -> Ast.Return (Some (parse_expression st)))
  | Token.KW_FOR -> parse_for st
  | Token.KW_WHILE ->
    advance st;
    eat st Token.LPAREN;
    let cond = parse_expression st in
    eat st Token.RPAREN;
    let body = parse_block_or_stmt st in
    Ast.While (cond, body)
  | Token.KW_BREAK ->
    advance st;
    Ast.Break
  | Token.KW_CONTINUE ->
    advance st;
    Ast.Continue
  | Token.KW_TRY ->
    advance st;
    skip_newlines st;
    let body = parse_block st in
    skip_newlines st;
    eat st Token.KW_CATCH;
    eat st Token.LPAREN;
    if peek st = Token.KW_DEF then advance st;
    let name =
      match peek st with
      | Token.IDENT n ->
        advance st;
        n
      | t -> error st "expected exception name, found %s" (Token.to_string t)
    in
    eat st Token.RPAREN;
    skip_newlines st;
    let handler = parse_block st in
    Ast.Try (body, name, handler)
  | Token.IDENT label when peek2 st = Token.COLON ->
    (* Groovy labeled statement ([action: [GET: "x"]] in mappings blocks):
       represent as a call [label(expr)] so the payload is retained *)
    advance st;
    advance st;
    skip_newlines st;
    let e = parse_expression st in
    Ast.Expr_stmt (Ast.Call (None, label, [ Ast.Named (label, e) ]))
  | Token.IDENT name
    when starts_expression (peek2 st)
         && (match peek2 st with Token.IDENT _ -> st.toks.(st.pos + 2).tok <> Token.ASSIGN | _ -> true)
    ->
    (* command-style call: [input "tv1", "capability.switch", title: "?"] *)
    advance st;
    let args = parse_command_args st in
    Ast.Expr_stmt (Ast.Call (None, name, args))
  | Token.IDENT name when peek2 st = Token.LBRACE ->
    (* call with bare trailing closure: [preferences { ... }] *)
    advance st;
    let closure = parse_closure st in
    Ast.Expr_stmt (Ast.Call (None, name, [ Ast.Pos closure ]))
  | _ -> Ast.Expr_stmt (parse_expression st)

and parse_if st =
  eat st Token.KW_IF;
  eat st Token.LPAREN;
  let cond = parse_expression st in
  eat st Token.RPAREN;
  let then_branch = parse_block_or_stmt st in
  (* [else] may sit on its own line after a closing brace *)
  let saved = st.pos in
  skip_separators st;
  if peek st = Token.KW_ELSE then begin
    advance st;
    skip_newlines st;
    let else_branch =
      if peek st = Token.KW_IF then [ parse_if st ] else parse_block_or_stmt st
    in
    Ast.If (cond, then_branch, else_branch)
  end
  else begin
    st.pos <- saved;
    Ast.If (cond, then_branch, [])
  end

and parse_switch st =
  eat st Token.KW_SWITCH;
  eat st Token.LPAREN;
  let scrutinee = parse_expression st in
  eat st Token.RPAREN;
  skip_newlines st;
  eat st Token.LBRACE;
  let rec go acc =
    skip_separators st;
    match peek st with
    | Token.RBRACE ->
      advance st;
      List.rev acc
    | Token.KW_CASE ->
      advance st;
      let e = parse_expression st in
      eat st Token.COLON;
      let body = parse_case_body st in
      go (Ast.Case (e, body) :: acc)
    | Token.KW_DEFAULT ->
      advance st;
      eat st Token.COLON;
      let body = parse_case_body st in
      go (Ast.Default body :: acc)
    | t -> error st "expected 'case', 'default' or '}', found %s" (Token.to_string t)
  in
  Ast.Switch (scrutinee, go [])

and parse_case_body st =
  let rec go acc =
    skip_separators st;
    match peek st with
    | Token.KW_CASE | Token.KW_DEFAULT | Token.RBRACE | Token.EOF -> List.rev acc
    | _ ->
      let s = parse_statement st in
      go (s :: acc)
  in
  go []

and parse_for st =
  eat st Token.KW_FOR;
  eat st Token.LPAREN;
  if peek st = Token.KW_DEF then advance st;
  let name =
    match peek st with
    | Token.IDENT n ->
      advance st;
      n
    | t -> error st "expected loop variable, found %s" (Token.to_string t)
  in
  eat st Token.KW_IN;
  let coll = parse_expression st in
  eat st Token.RPAREN;
  let body = parse_block_or_stmt st in
  Ast.For_in (name, coll, body)

and parse_command_args st =
  let rec go acc =
    let arg = parse_arg st in
    if peek st = Token.COMMA then begin
      advance st;
      skip_newlines st;
      go (arg :: acc)
    end
    else List.rev (arg :: acc)
  in
  go []

and parse_arg st =
  match (peek st, peek2 st) with
  | Token.IDENT key, Token.COLON ->
    advance st;
    advance st;
    skip_newlines st;
    Ast.Named (key, parse_expression st)
  | Token.STRING key, Token.COLON ->
    advance st;
    advance st;
    skip_newlines st;
    Ast.Named (key, parse_expression st)
  | _ -> Ast.Pos (parse_expression st)

and parse_call_args st =
  (* assumes LPAREN already consumed; consumes through RPAREN *)
  skip_newlines st;
  if peek st = Token.RPAREN then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let arg = parse_arg st in
      skip_newlines st;
      match peek st with
      | Token.COMMA ->
        advance st;
        skip_newlines st;
        go (arg :: acc)
      | Token.RPAREN ->
        advance st;
        List.rev (arg :: acc)
      | t -> error st "expected ',' or ')' in argument list, found %s" (Token.to_string t)
    in
    go []

and parse_expression st = parse_assignment st

and parse_assignment st =
  let lhs = parse_ternary st in
  match peek st with
  | Token.ASSIGN ->
    advance st;
    skip_newlines st;
    let rhs = parse_assignment st in
    Ast.Assign (lhs, rhs)
  | Token.PLUS_ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    Ast.Assign (lhs, Ast.Binop (Ast.Add, lhs, rhs))
  | Token.MINUS_ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    Ast.Assign (lhs, Ast.Binop (Ast.Sub, lhs, rhs))
  | Token.STAR_ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    Ast.Assign (lhs, Ast.Binop (Ast.Mul, lhs, rhs))
  | Token.SLASH_ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    Ast.Assign (lhs, Ast.Binop (Ast.Div, lhs, rhs))
  | _ -> lhs

and parse_ternary st =
  let cond = parse_or st in
  match peek st with
  | Token.QUESTION ->
    advance st;
    skip_newlines st;
    let then_e = parse_expression st in
    skip_newlines st;
    eat st Token.COLON;
    skip_newlines st;
    let else_e = parse_ternary st in
    Ast.Ternary (cond, then_e, else_e)
  | Token.ELVIS ->
    advance st;
    skip_newlines st;
    let rhs = parse_ternary st in
    Ast.Binop (Ast.Elvis, cond, rhs)
  | _ -> cond

and parse_or st =
  let rec go lhs =
    if peek st = Token.OR_OR then begin
      advance st;
      skip_newlines st;
      let rhs = parse_and st in
      go (Ast.Binop (Ast.Or, lhs, rhs))
    end
    else lhs
  in
  go (parse_and st)

and parse_and st =
  let rec go lhs =
    if peek st = Token.AND_AND then begin
      advance st;
      skip_newlines st;
      let rhs = parse_equality st in
      go (Ast.Binop (Ast.And, lhs, rhs))
    end
    else lhs
  in
  go (parse_equality st)

and parse_equality st =
  let rec go lhs =
    match peek st with
    | Token.EQ ->
      advance st;
      skip_newlines st;
      go (Ast.Binop (Ast.Eq, lhs, parse_relational st))
    | Token.NEQ ->
      advance st;
      skip_newlines st;
      go (Ast.Binop (Ast.Neq, lhs, parse_relational st))
    | _ -> lhs
  in
  go (parse_relational st)

and parse_relational st =
  let rec go lhs =
    match peek st with
    | Token.LT ->
      advance st;
      go (Ast.Binop (Ast.Lt, lhs, parse_range st))
    | Token.LE ->
      advance st;
      go (Ast.Binop (Ast.Le, lhs, parse_range st))
    | Token.GT ->
      advance st;
      go (Ast.Binop (Ast.Gt, lhs, parse_range st))
    | Token.GE ->
      advance st;
      go (Ast.Binop (Ast.Ge, lhs, parse_range st))
    | Token.KW_IN ->
      advance st;
      go (Ast.Binop (Ast.In_op, lhs, parse_range st))
    | _ -> lhs
  in
  go (parse_range st)

and parse_range st =
  let lhs = parse_additive st in
  if peek st = Token.DOTDOT then begin
    advance st;
    Ast.Range (lhs, parse_additive st)
  end
  else lhs

and parse_additive st =
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
      advance st;
      skip_newlines st;
      go (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    | Token.MINUS ->
      advance st;
      go (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    match peek st with
    | Token.STAR ->
      advance st;
      go (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    | Token.SLASH ->
      advance st;
      go (Ast.Binop (Ast.Div, lhs, parse_unary st))
    | Token.PERCENT ->
      advance st;
      go (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.BANG ->
    advance st;
    Ast.Unop (Ast.Not, parse_unary st)
  | Token.MINUS ->
    advance st;
    Ast.Unop (Ast.Neg, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go e =
    match peek st with
    | Token.DOT -> (
      advance st;
      let name = parse_member_name st in
      match peek st with
      | Token.LPAREN ->
        advance st;
        let args = parse_call_args st in
        let args = maybe_trailing_closure st args in
        go (Ast.Call (Some e, name, args))
      | Token.LBRACE ->
        let closure = parse_closure st in
        go (Ast.Call (Some e, name, [ Ast.Pos closure ]))
      | _ -> go (Ast.Prop (e, name)))
    | Token.SAFE_DOT -> (
      advance st;
      let name = parse_member_name st in
      match peek st with
      | Token.LPAREN ->
        advance st;
        let args = parse_call_args st in
        go (Ast.Call (Some e, name, args))
      | _ -> go (Ast.Safe_prop (e, name)))
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expression st in
      eat st Token.RBRACKET;
      go (Ast.Index (e, idx))
    | Token.PLUS_PLUS ->
      advance st;
      Ast.Assign (e, Ast.Binop (Ast.Add, e, Ast.Lit (Ast.Int 1)))
    | Token.MINUS_MINUS ->
      advance st;
      Ast.Assign (e, Ast.Binop (Ast.Sub, e, Ast.Lit (Ast.Int 1)))
    | _ -> e
  in
  go (parse_primary st)

and parse_member_name st =
  match peek st with
  | Token.IDENT n ->
    advance st;
    n
  (* keywords usable as member names: [location.currentMode.in(...)] etc. *)
  | Token.KW_IN ->
    advance st;
    "in"
  | t -> error st "expected member name, found %s" (Token.to_string t)

and maybe_trailing_closure st args =
  if peek st = Token.LBRACE then args @ [ Ast.Pos (parse_closure st) ] else args

and parse_primary st =
  match peek st with
  | Token.INT n ->
    advance st;
    Ast.Lit (Ast.Int n)
  | Token.FLOAT f ->
    advance st;
    Ast.Lit (Ast.Float f)
  | Token.STRING s ->
    advance st;
    Ast.Lit (Ast.Str s)
  | Token.DSTRING parts ->
    advance st;
    let all_text =
      List.for_all (function Token.G_text _ -> true | Token.G_code _ -> false) parts
    in
    if all_text then
      (* a GString without interpolation holes is a plain string *)
      Ast.Lit
        (Ast.Str
           (String.concat ""
              (List.map (function Token.G_text s -> s | Token.G_code _ -> "") parts)))
    else
      let conv = function
        | Token.G_text s -> Ast.Text s
        | Token.G_code src -> Ast.Interp (parse_expr_string src)
      in
      Ast.Gstring (List.map conv parts)
  | Token.KW_TRUE ->
    advance st;
    Ast.Lit (Ast.Bool true)
  | Token.KW_FALSE ->
    advance st;
    Ast.Lit (Ast.Bool false)
  | Token.KW_NULL ->
    advance st;
    Ast.Lit Ast.Null
  | Token.KW_NEW -> (
    advance st;
    match peek st with
    | Token.IDENT cls ->
      advance st;
      eat st Token.LPAREN;
      let args = parse_call_args st in
      Ast.New (cls, args)
    | t -> error st "expected class name after 'new', found %s" (Token.to_string t))
  | Token.IDENT name -> (
    advance st;
    match peek st with
    | Token.LPAREN ->
      advance st;
      let args = parse_call_args st in
      let args = maybe_trailing_closure st args in
      Ast.Call (None, name, args)
    | _ -> Ast.Ident name)
  | Token.LPAREN ->
    advance st;
    skip_newlines st;
    let e = parse_expression st in
    skip_newlines st;
    eat st Token.RPAREN;
    e
  | Token.LBRACKET -> parse_list_or_map st
  | Token.LBRACE -> parse_closure st
  | t -> error st "unexpected token %s in expression" (Token.to_string t)

and parse_list_or_map st =
  eat st Token.LBRACKET;
  skip_newlines st;
  match peek st with
  | Token.RBRACKET ->
    advance st;
    Ast.List_lit []
  | Token.COLON ->
    advance st;
    eat st Token.RBRACKET;
    Ast.Map_lit []
  | _ ->
    let is_map =
      match (peek st, peek2 st) with
      | Token.IDENT _, Token.COLON | Token.STRING _, Token.COLON -> true
      | _ -> false
    in
    if is_map then begin
      let rec go acc =
        skip_newlines st;
        let key =
          match peek st with
          | Token.IDENT k | Token.STRING k ->
            advance st;
            k
          | t -> error st "expected map key, found %s" (Token.to_string t)
        in
        eat st Token.COLON;
        skip_newlines st;
        let v = parse_expression st in
        skip_newlines st;
        match peek st with
        | Token.COMMA ->
          advance st;
          go ((key, v) :: acc)
        | Token.RBRACKET ->
          advance st;
          Ast.Map_lit (List.rev ((key, v) :: acc))
        | t -> error st "expected ',' or ']' in map literal, found %s" (Token.to_string t)
      in
      go []
    end
    else begin
      let rec go acc =
        skip_newlines st;
        let e = parse_expression st in
        skip_newlines st;
        match peek st with
        | Token.COMMA ->
          advance st;
          go (e :: acc)
        | Token.RBRACKET ->
          advance st;
          Ast.List_lit (List.rev (e :: acc))
        | t -> error st "expected ',' or ']' in list literal, found %s" (Token.to_string t)
      in
      go []
    end

and parse_closure st =
  eat st Token.LBRACE;
  (* Lookahead for a parameter list: IDENT (',' IDENT)* '->' *)
  let params =
    let rec scan pos acc =
      match st.toks.(pos).tok with
      | Token.IDENT n -> (
        match st.toks.(pos + 1).tok with
        | Token.COMMA -> scan (pos + 2) (n :: acc)
        | Token.ARROW -> Some (List.rev (n :: acc), pos + 2)
        | _ -> None)
      | Token.ARROW when acc = [] -> Some ([], pos + 1)
      | Token.NEWLINE -> scan (pos + 1) acc
      | _ -> None
    in
    scan st.pos []
  in
  let params =
    match params with
    | Some (ps, next) ->
      st.pos <- next;
      ps
    | None -> []
  in
  let body = parse_statements_until st Token.RBRACE in
  eat st Token.RBRACE;
  Ast.Closure (params, body)

(** Parse an expression given as a source string (used for GString
    interpolation holes). *)
and parse_expr_string src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0 } in
  skip_newlines st;
  let e = parse_expression st in
  skip_separators st;
  if peek st <> Token.EOF then error st "trailing tokens in interpolated expression";
  e

(** Parse a complete SmartApp source string into a program. *)
let parse src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0 } in
  parse_program st
