(** Quantifier-free formulas over {!Term}s.

    Negation can always be pushed onto atoms by flipping the comparator,
    so normal forms contain positive atoms only. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Atom of cmp * Term.t * Term.t
  | And of t list
  | Or of t list
  | Not of t

let atom cmp a b = Atom (cmp, a, b)
let eq a b = Atom (Eq, a, b)
let neq a b = Atom (Neq, a, b)
let lt a b = Atom (Lt, a, b)
let le a b = Atom (Le, a, b)
let gt a b = Atom (Gt, a, b)
let ge a b = Atom (Ge, a, b)

(** n-ary conjunction with unit/zero simplification. *)
let conj fs =
  let fs = List.filter (fun f -> f <> True) fs in
  if List.exists (fun f -> f = False) fs then False
  else match fs with [] -> True | [ f ] -> f | fs -> And fs

let disj fs =
  let fs = List.filter (fun f -> f <> False) fs in
  if List.exists (fun f -> f = True) fs then True
  else match fs with [] -> False | [ f ] -> f | fs -> Or fs

let flip_cmp = function Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

(** Negation-normal form: [Not] eliminated by comparator flipping. *)
let rec nnf = function
  | True -> True
  | False -> False
  | Atom _ as a -> a
  | And fs -> And (List.map nnf fs)
  | Or fs -> Or (List.map nnf fs)
  | Not f -> nnf_neg f

and nnf_neg = function
  | True -> False
  | False -> True
  | Atom (cmp, a, b) -> Atom (flip_cmp cmp, a, b)
  | And fs -> Or (List.map nnf_neg fs)
  | Or fs -> And (List.map nnf_neg fs)
  | Not f -> nnf f

(* Inert: kept for hgbench and the cache keys (see the interface). *)
let memo_enabled = ref true

(** Flatten nested conjunctions into a list of non-[And] conjuncts. *)
let rec conjuncts = function
  | True -> []
  | And fs -> List.concat_map conjuncts fs
  | f -> [ f ]

let rec free_vars_acc acc = function
  | True | False -> acc
  | Atom (_, a, b) -> Term.vars (Term.vars acc a) b
  | And fs | Or fs -> List.fold_left free_vars_acc acc fs
  | Not f -> free_vars_acc acc f

let free_vars f = List.rev (free_vars_acc [] f)

let cmp_to_string = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Atom (cmp, a, b) ->
    Printf.sprintf "%s %s %s" (Term.to_string a) (cmp_to_string cmp) (Term.to_string b)
  | And fs -> "(" ^ String.concat " && " (List.map to_string fs) ^ ")"
  | Or fs -> "(" ^ String.concat " || " (List.map to_string fs) ^ ")"
  | Not f -> "!(" ^ to_string f ^ ")"

(** Substitute variables by terms throughout. *)
let rec subst map = function
  | (True | False) as f -> f
  | Atom (cmp, a, b) -> Atom (cmp, Term.subst map a, Term.subst map b)
  | And fs -> And (List.map (subst map) fs)
  | Or fs -> Or (List.map (subst map) fs)
  | Not f -> Not (subst map f)

(** Compare two values: comparisons between ints and strings are false
    except [Neq], and ordering strings raises [Invalid_argument]. *)
let compare_values cmp va vb =
  match (va, vb) with
  | Domain.Int x, Domain.Int y -> (
    match cmp with
    | Eq -> x = y
    | Neq -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y)
  | Domain.Str x, Domain.Str y -> (
    match cmp with
    | Eq -> x = y
    | Neq -> x <> y
    | Lt | Le | Gt | Ge -> invalid_arg "ordering on strings")
  | _ -> ( match cmp with Neq -> true | _ -> false)

(** Evaluate under a total assignment [env : string -> Domain.value].
    Raises [Not_found] if a variable is unbound; comparisons between
    ints and strings are false except [Neq]. *)
let eval env f =
  let rec term = function
    | Term.Int n -> Domain.Int n
    | Term.Str s -> Domain.Str s
    | Term.Var v -> env v
    | Term.Add (a, b) -> arith ( + ) a b
    | Term.Sub (a, b) -> arith ( - ) a b
    | Term.Mul (a, b) -> arith ( * ) a b
    | Term.Neg a -> ( match term a with
      | Domain.Int n -> Domain.Int (-n)
      | Domain.Str _ -> invalid_arg "negation of string")
  and arith op a b =
    match (term a, term b) with
    | Domain.Int x, Domain.Int y -> Domain.Int (op x y)
    | _ -> invalid_arg "arithmetic on string"
  in
  let rec go = function
    | True -> true
    | False -> false
    | Atom (cmp, a, b) -> compare_values cmp (term a) (term b)
    | And fs -> List.for_all go fs
    | Or fs -> List.exists go fs
    | Not f -> not (go f)
  in
  go f
