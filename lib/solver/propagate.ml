(** Constraint propagation over a conjunct of atoms (HC4-style).

    Each atom is revised by a forward interval-evaluation of both term
    sides followed by backward narrowing through the term tree (the HC4
    algorithm used in interval CP solvers). Enum-typed atoms use set
    intersection/removal. Revision iterates to a fixpoint, capped by
    {!max_rounds} for safety — the cap never compromises soundness, only
    how much search has to do.

    Variables are interned: {!Search.solve} numbers a conjunct's
    variables once, and the atoms it hands over refer to slots of a flat
    domain array, so a revision reads and narrows a domain by index
    instead of looking up a qualified name. *)

exception Unsat

(** A {!Term.t} whose variables are slots of the domain array. *)
type term =
  | Int of int
  | Str of string
  | Var of int
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Neg of term

type atom = Formula.cmp * term * term

let rec compile_term slot = function
  | Term.Int n -> Int n
  | Term.Str s -> Str s
  | Term.Var v -> Var (slot v)
  | Term.Add (a, b) -> Add (compile_term slot a, compile_term slot b)
  | Term.Sub (a, b) -> Sub (compile_term slot a, compile_term slot b)
  | Term.Mul (a, b) -> Mul (compile_term slot a, compile_term slot b)
  | Term.Neg a -> Neg (compile_term slot a)

let compile slot ((cmp, a, b) : Dnf.atom) : atom =
  (cmp, compile_term slot a, compile_term slot b)

type approx =
  | A_int of int * int  (** interval hull *)
  | A_enum of string list

let approx_of_domain = function
  | Domain.Ints [] -> raise Unsat
  | (Domain.Ints _ | Domain.Bits _) as d ->
    A_int (Option.get (Domain.min_int_opt d), Option.get (Domain.max_int_opt d))
  | Domain.Enums [] -> raise Unsat
  | Domain.Enums vs -> A_enum vs

(* Saturating arithmetic guards against overflow on the ±1e6 defaults. *)
let sat_add a b =
  let r = a + b in
  if a > 0 && b > 0 && r < 0 then max_int else if a < 0 && b < 0 && r > 0 then min_int else r

let sat_sub a b = sat_add a (if b = min_int then max_int else -b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a then if (a > 0) = (b > 0) then max_int else min_int else r

let mul_bounds (la, ha) (lb, hb) =
  let products = [ sat_mul la lb; sat_mul la hb; sat_mul ha lb; sat_mul ha hb ] in
  (List.fold_left min max_int products, List.fold_left max min_int products)

type state = { domains : Domain.t array; mutable dirty : bool }

let get st v = st.domains.(v)

(* Only a strictly-narrowed domain marks the state dirty; the fixpoint
   loop then just reads the flag instead of comparing snapshots every
   round. *)
let set st v d =
  if Domain.is_empty d then raise Unsat;
  if not (Domain.equal st.domains.(v) d) then begin
    st.dirty <- true;
    st.domains.(v) <- d
  end

(* Forward: interval/set approximation of a term. *)
let rec forward st = function
  | Int n -> A_int (n, n)
  | Str s -> A_enum [ s ]
  | Var v -> approx_of_domain (get st v)
  | Add (a, b) -> (
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) -> A_int (sat_add la lb, sat_add ha hb)
    | _ -> invalid_arg "Propagate: arithmetic on enum term")
  | Sub (a, b) -> (
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) -> A_int (sat_sub la hb, sat_sub ha lb)
    | _ -> invalid_arg "Propagate: arithmetic on enum term")
  | Mul (a, b) -> (
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) ->
      let lo, hi = mul_bounds (la, ha) (lb, hb) in
      A_int (lo, hi)
    | _ -> invalid_arg "Propagate: arithmetic on enum term")
  | Neg a -> (
    match forward st a with
    | A_int (la, ha) -> A_int (-ha, -la)
    | A_enum _ -> invalid_arg "Propagate: negation of enum term")

(* Backward: narrow a term's variables so the term fits [lo, hi]. *)
let rec narrow_int st term lo hi =
  if lo > hi then raise Unsat;
  match term with
  | Int n -> if n < lo || n > hi then raise Unsat
  | Str _ -> invalid_arg "Propagate: narrowing enum term with interval"
  | Var v -> (
    let d = get st v in
    match approx_of_domain d with
    (* already within [lo, hi]: narrowing would rebuild an equal domain *)
    | A_int (dl, dh) when lo <= dl && dh <= hi -> ()
    | A_int _ | A_enum _ | (exception Unsat) ->
      set st v (Domain.at_least lo (Domain.at_most hi d)))
  | Add (a, b) -> (
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) ->
      narrow_int st a (max la (sat_sub lo hb)) (min ha (sat_sub hi lb));
      narrow_int st b (max lb (sat_sub lo ha)) (min hb (sat_sub hi la))
    | _ -> invalid_arg "Propagate: arithmetic on enum term")
  | Sub (a, b) -> (
    (* a - b in [lo, hi]  =>  a in [lo + lb, hi + hb], b in [la - hi, ha - lo] *)
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) ->
      narrow_int st a (max la (sat_add lo lb)) (min ha (sat_add hi hb));
      narrow_int st b (max lb (sat_sub la hi)) (min hb (sat_sub ha lo))
    | _ -> invalid_arg "Propagate: arithmetic on enum term")
  | Mul (a, b) -> (
    (* Narrow only through constant factors (the common linear case). *)
    match (a, b) with
    | Int k, other | other, Int k ->
      if k > 0 then
        (* k*x in [lo,hi] => x in [ceil(lo/k), floor(hi/k)] *)
        let ceil_div p q = if p >= 0 then (p + q - 1) / q else p / q in
        let floor_div p q = if p >= 0 then p / q else -((-p + q - 1) / q) in
        narrow_int st other (ceil_div lo k) (floor_div hi k)
      else if k < 0 then
        let k' = -k in
        let ceil_div p q = if p >= 0 then (p + q - 1) / q else p / q in
        let floor_div p q = if p >= 0 then p / q else -((-p + q - 1) / q) in
        narrow_int st other (ceil_div (-hi) k') (floor_div (-lo) k')
      else if lo > 0 || hi < 0 then raise Unsat
    | _ -> () (* sound: no narrowing for var*var *))
  | Neg a -> narrow_int st a (-hi) (-lo)

let narrow_enum st term allowed =
  match term with
  | Str s -> if not (List.mem s allowed) then raise Unsat
  | Var v -> (
    match get st v with
    (* every member already allowed: the intersection would be equal *)
    | Domain.Enums (_ :: _ as vs) when List.for_all (fun x -> List.mem x allowed) vs -> ()
    | d -> set st v (Domain.inter d (Domain.enums allowed)))
  | _ -> invalid_arg "Propagate: enum narrowing of arithmetic term"

(* Classify an atom's sides: both enum, both int, or mixed. *)
type side_type = S_int | S_enum

let rec side_type st = function
  | Int _ -> S_int
  | Str _ -> S_enum
  | Var v -> (
    match get st v with
    | Domain.Ints _ | Domain.Bits _ -> S_int
    | Domain.Enums _ -> S_enum)
  | Add _ | Sub _ | Mul _ -> S_int
  | Neg t -> side_type st t

let revise_atom st (cmp, a, b) =
  match (side_type st a, side_type st b) with
  | S_int, S_int -> (
    match (forward st a, forward st b) with
    | A_int (la, ha), A_int (lb, hb) -> (
      match cmp with
      | Formula.Eq ->
        let lo = max la lb and hi = min ha hb in
        narrow_int st a lo hi;
        narrow_int st b lo hi
      | Formula.Le ->
        narrow_int st a la (min ha hb);
        narrow_int st b (max la lb) hb
      | Formula.Lt ->
        narrow_int st a la (min ha (sat_sub hb 1));
        narrow_int st b (max (sat_add la 1) lb) hb
      | Formula.Ge ->
        narrow_int st a (max la lb) ha;
        narrow_int st b lb (min ha hb)
      | Formula.Gt ->
        narrow_int st a (max la (sat_add lb 1)) ha;
        narrow_int st b lb (min hb (sat_sub ha 1))
      | Formula.Neq -> (
        if la = ha && lb = hb && la = lb then raise Unsat
        else
          (* prune only the bare-variable-vs-singleton cases *)
          match (a, b) with
          | Var v, _ when lb = hb -> set st v (Domain.remove_int lb (get st v))
          | _, Var v when la = ha -> set st v (Domain.remove_int la (get st v))
          | _ -> ()))
    | _ -> assert false)
  | S_enum, S_enum -> (
    match (forward st a, forward st b) with
    | A_enum va, A_enum vb -> (
      match cmp with
      | Formula.Eq ->
        let common = List.filter (fun v -> List.mem v vb) va in
        narrow_enum st a common;
        narrow_enum st b common
      | Formula.Neq -> (
        match (va, vb) with
        | [ x ], [ y ] when x = y -> raise Unsat
        | [ x ], _ -> (
          match b with
          | Var v -> set st v (Domain.remove_str x (get st v))
          | _ -> ())
        | _, [ y ] -> (
          match a with
          | Var v -> set st v (Domain.remove_str y (get st v))
          | _ -> ())
        | _ -> ())
      | Formula.Lt | Formula.Le | Formula.Gt | Formula.Ge ->
        invalid_arg "Propagate: ordering on enum terms")
    | _ -> assert false)
  | _ -> (
    (* mixed int/enum: equality is impossible, disequality trivial *)
    match cmp with
    | Formula.Eq -> raise Unsat
    | Formula.Neq -> ()
    | _ -> invalid_arg "Propagate: ordering between int and enum terms")

let max_rounds = 100

(** [run ?budget domains atoms] propagates to fixpoint, narrowing
    [domains] in place; raises {!Unsat} on wipe-out. Each atom revision
    spends one step of [budget]'s propagation fuel, so an exhausted
    budget surfaces as {!Budget.Exhausted} — never as {!Unsat}. *)
let run ?budget domains atoms =
  let st = { domains; dirty = true } in
  let spend =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Budget.spend_prop b ~where:"Propagate.run"
  in
  let rounds = ref 0 in
  while st.dirty && !rounds < max_rounds do
    incr rounds;
    st.dirty <- false;
    List.iter
      (fun atom ->
        spend ();
        revise_atom st atom)
      atoms
  done
