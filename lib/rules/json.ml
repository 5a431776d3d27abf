(** The one JSON codec: rule files (paper §VIII-C reports ~6.2 KB per
    app), journal events and verdict-cache keys.

    Hand-rolled on purpose — the repo carries no JSON dependency. The
    parser is total: any byte string yields [Ok] or [Error], never an
    exception, because journal payloads are untrusted once they are on
    disk. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  escape_into buf s;
  Buffer.contents buf

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let quoted s =
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | Str s -> quoted s
    | List items -> seq '[' ']' go items
    | Obj fields ->
      seq '{' '}'
        (fun (k, item) ->
          quoted k;
          Buffer.add_char buf ':';
          go item)
        fields
  and seq : 'a. char -> char -> ('a -> unit) -> 'a list -> unit =
   fun opening closing item items ->
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        item x)
      items;
    Buffer.add_char buf closing
  in
  go v;
  Buffer.contents buf

(* -- parsing ------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> parse_error "expected '%c' at offset %d, found end of input" ch c.pos

let expect_word c word value =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

(* Encode a Unicode code point as UTF-8. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then parse_error "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | Some cp -> add_utf8 buf cp
        | None -> parse_error "invalid \\u escape '%s'" hex);
        go ()
      | _ -> parse_error "invalid escape at offset %d" c.pos)
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let text = String.sub c.src start (c.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_error "invalid number '%s' at offset %d" text start)

(* Far above any rule file's or event's nesting; a deeper payload is
   rejected instead of recursing until the stack runs out. *)
let max_depth = 1000

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
    parse_error "nesting deeper than %d at offset %d" max_depth c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (key, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; fields_loop ()
        | Some '}' -> advance c
        | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; List [] end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value c (depth + 1) in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; items_loop ()
        | Some ']' -> advance c
        | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> expect_word c "true" (Bool true)
  | Some 'f' -> expect_word c "false" (Bool false)
  | Some 'n' -> expect_word c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> parse_error "unexpected '%c' at offset %d" ch c.pos

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error (Printf.sprintf "trailing input at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors ----------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_number = function Int n -> Some (float_of_int n) | Float f -> Some f | _ -> None
