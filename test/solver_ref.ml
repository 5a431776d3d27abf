(** Test-local reference for the solver kernel: the string-keyed
    propagate-and-split search and the two-table store inference that
    the interned-variable kernel replaced, kept verbatim so differential
    tests can compare verdicts, witnesses, [Unknown] reasons and
    inferred stores against it. *)

open Homeguard_solver

module Propagate = struct
  module SMap = Map.Make (String)

  exception Unsat

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

  type state = { mutable domains : Domain.t SMap.t; mutable dirty : bool }

  let get st v =
    match SMap.find_opt v st.domains with
    | Some d -> d
    | None -> invalid_arg ("Propagate: variable not in store: " ^ v)

  (* Only a strictly-narrowed domain marks the state dirty (and pays the
     map update); the fixpoint loop then just reads the flag instead of
     comparing whole-map snapshots every round. *)
  let set st v d =
    if Domain.is_empty d then raise Unsat;
    let old = SMap.find_opt v st.domains in
    match old with
    | Some old when Domain.equal old d -> ()
    | _ ->
      st.dirty <- true;
      st.domains <- SMap.add v d st.domains

  (* Forward: interval/set approximation of a term. *)
  let rec forward st = function
    | Term.Int n -> A_int (n, n)
    | Term.Str s -> A_enum [ s ]
    | Term.Var v -> approx_of_domain (get st v)
    | Term.Add (a, b) -> (
      match (forward st a, forward st b) with
      | A_int (la, ha), A_int (lb, hb) -> A_int (sat_add la lb, sat_add ha hb)
      | _ -> invalid_arg "Propagate: arithmetic on enum term")
    | Term.Sub (a, b) -> (
      match (forward st a, forward st b) with
      | A_int (la, ha), A_int (lb, hb) -> A_int (sat_sub la hb, sat_sub ha lb)
      | _ -> invalid_arg "Propagate: arithmetic on enum term")
    | Term.Mul (a, b) -> (
      match (forward st a, forward st b) with
      | A_int (la, ha), A_int (lb, hb) ->
        let lo, hi = mul_bounds (la, ha) (lb, hb) in
        A_int (lo, hi)
      | _ -> invalid_arg "Propagate: arithmetic on enum term")
    | Term.Neg a -> (
      match forward st a with
      | A_int (la, ha) -> A_int (-ha, -la)
      | A_enum _ -> invalid_arg "Propagate: negation of enum term")

  (* Backward: narrow a term's variables so the term fits [lo, hi]. *)
  let rec narrow_int st term lo hi =
    if lo > hi then raise Unsat;
    match term with
    | Term.Int n -> if n < lo || n > hi then raise Unsat
    | Term.Str _ -> invalid_arg "Propagate: narrowing enum term with interval"
    | Term.Var v ->
      let d = get st v in
      set st v (Domain.at_least lo (Domain.at_most hi d))
    | Term.Add (a, b) -> (
      match (forward st a, forward st b) with
      | A_int (la, ha), A_int (lb, hb) ->
        narrow_int st a (max la (sat_sub lo hb)) (min ha (sat_sub hi lb));
        narrow_int st b (max lb (sat_sub lo ha)) (min hb (sat_sub hi la))
      | _ -> invalid_arg "Propagate: arithmetic on enum term")
    | Term.Sub (a, b) -> (
      (* a - b in [lo, hi]  =>  a in [lo + lb, hi + hb], b in [la - hi, ha - lo] *)
      match (forward st a, forward st b) with
      | A_int (la, ha), A_int (lb, hb) ->
        narrow_int st a (max la (sat_add lo lb)) (min ha (sat_add hi hb));
        narrow_int st b (max lb (sat_sub la hi)) (min hb (sat_sub ha lo))
      | _ -> invalid_arg "Propagate: arithmetic on enum term")
    | Term.Mul (a, b) -> (
      (* Narrow only through constant factors (the common linear case). *)
      match (a, b) with
      | Term.Int k, other | other, Term.Int k ->
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
    | Term.Neg a -> narrow_int st a (-hi) (-lo)

  let narrow_enum st term allowed =
    match term with
    | Term.Str s -> if not (List.mem s allowed) then raise Unsat
    | Term.Var v ->
      let d = get st v in
      set st v (Domain.inter d (Domain.enums allowed))
    | _ -> invalid_arg "Propagate: enum narrowing of arithmetic term"

  (* Classify an atom's sides: both enum, both int, or mixed. *)
  type side_type = S_int | S_enum

  let rec side_type st = function
    | Term.Int _ -> S_int
    | Term.Str _ -> S_enum
    | Term.Var v -> (
      match get st v with
      | Domain.Ints _ | Domain.Bits _ -> S_int
      | Domain.Enums _ -> S_enum)
    | Term.Add _ | Term.Sub _ | Term.Mul _ -> S_int
    | Term.Neg t -> side_type st t

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
            | Term.Var v, _ when lb = hb -> set st v (Domain.remove_int lb (get st v))
            | _, Term.Var v when la = ha -> set st v (Domain.remove_int la (get st v))
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
            | Term.Var v -> set st v (Domain.remove_str x (get st v))
            | _ -> ())
          | _, [ y ] -> (
            match a with
            | Term.Var v -> set st v (Domain.remove_str y (get st v))
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

  (** [run ?budget domains atoms] propagates to fixpoint. Returns the
      narrowed domains; raises {!Unsat} on wipe-out. Each atom revision
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
        atoms;
    done;
    st.domains
end

module Search = struct
  module SMap = Propagate.SMap

  type model = (string * Domain.value) list

  let max_depth = 10_000

  (* Restrict the domain map to variables the atoms mention; everything
     else is unconstrained and can take any value. Order-preserving and
     duplicate-free: [model_of_domains] folds over this list, so a
     repeated variable would yield a witness with duplicate bindings. *)
  let relevant_vars atoms =
    let vs =
      List.fold_left (fun acc (_, a, b) -> Term.vars (Term.vars acc a) b) [] atoms
    in
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      vs

  let model_of_domains vars domains =
    List.filter_map
      (fun v ->
        match SMap.find_opt v domains with
        | Some d -> Option.map (fun value -> (v, value)) (Domain.choose d)
        | None -> None)
      vars

  let all_atoms_hold domains atoms =
    let env v =
      match SMap.find_opt v domains with
      | Some d -> ( match Domain.choose d with Some value -> value | None -> raise Not_found)
      | None -> raise Not_found
    in
    List.for_all
      (fun (cmp, a, b) -> Formula.eval env (Formula.Atom (cmp, a, b)))
      atoms

  (* [solve ?budget ?max_depth store atoms] decides the conjunction with
      a three-valued verdict: [Sat model], [Unsat], or [Unknown reason]
      when the depth cap or a budget trips before the search concludes.
      Budget exhaustion is never reported as [Unsat] — that silent
      conversion was a soundness hole (a real threat read as "no
      threat"). *)
  let solve ?budget ?(max_depth = max_depth) (store : Store.t) (atoms : Dnf.conjunct) :
      model Budget.verdict =
    let budget = match budget with Some b -> b | None -> Budget.unlimited () in
    let vars = relevant_vars atoms in
    let domains =
      List.fold_left
        (fun m v ->
          match Store.find_opt v store with
          | Some d -> SMap.add v d m
          | None -> invalid_arg ("Search.solve: variable not in store: " ^ v))
        SMap.empty vars
    in
    let rec go domains depth : model Budget.verdict =
      Budget.spend_node budget ~where:"Search.solve";
      if depth > max_depth then
        Budget.Unknown
          { Budget.trip = Budget.Depth;
            where = Printf.sprintf "Search.solve (depth cap %d)" max_depth }
      else
        match Propagate.run ~budget domains atoms with
        | exception Propagate.Unsat -> Budget.Unsat
        | domains when all_atoms_hold domains atoms ->
          (* Greedy model check: the canonical closest-to-zero assignment
             already satisfies every atom at this fixpoint, so no further
             splitting is needed. This collapses the deep bisection of the
             wide default domains for most Sat cases, and yields the same
             witness the zero-first descent would converge to. *)
          Budget.Sat (model_of_domains vars domains)
        | domains ->
          let unfixed =
            SMap.fold
              (fun v d acc ->
                let n = Domain.size d in
                match acc with
                | Some (_, best) when best <= n -> acc
                | _ -> if n >= 2 then Some (v, n) else acc)
              domains None
          in
          (match unfixed with
          | None -> Budget.Unsat
          | Some (v, _) ->
            let d = SMap.find v domains in
            let left, right = Domain.split d in
            (* explore the half nearer zero first for natural witnesses *)
            let first, second =
              if Domain.distance_to_zero right < Domain.distance_to_zero left then (right, left)
              else (left, right)
            in
            let try_branch half = go (SMap.add v half domains) (depth + 1) in
            (match try_branch first with
            | Budget.Sat m -> Budget.Sat m
            | Budget.Unsat -> try_branch second
            | Budget.Unknown r -> (
              (* a branch that hit the depth cap leaves the verdict
                 undecided unless the other branch finds a model *)
              match try_branch second with
              | Budget.Sat m -> Budget.Sat m
              | Budget.Unsat | Budget.Unknown _ -> Budget.Unknown r)))
    in
    match go domains 0 with
    | verdict -> verdict
    | exception Budget.Exhausted reason -> Budget.Unknown reason
end

module Store_infer = struct
  (* Collect, for each variable, the string constants it is compared
     against anywhere in the formula. *)
  let enum_universe f =
    let tbl = Hashtbl.create 16 in
    let note v s =
      let cur = try Hashtbl.find tbl v with Not_found -> [] in
      if not (List.mem s cur) then Hashtbl.replace tbl v (s :: cur)
    in
    let rec atom_sides a b =
      match (a, b) with
      | Term.Var v, Term.Str s | Term.Str s, Term.Var v -> note v s
      | Term.Var v1, Term.Var v2 ->
        (* joined enum variables share their universes at inference time *)
        note v1 ("__join__" ^ v2);
        note v2 ("__join__" ^ v1)
      | _ -> ()
    and go = function
      | Formula.True | Formula.False -> ()
      | Formula.Atom (_, a, b) -> atom_sides a b
      | Formula.And fs | Formula.Or fs -> List.iter go fs
      | Formula.Not f -> go f
    in
    go f;
    tbl

  (* Is a variable ever used arithmetically or ordered (=> numeric)? *)
  let numeric_vars f =
    let tbl = Hashtbl.create 16 in
    let rec note_term = function
      | Term.Int _ | Term.Str _ -> ()
      | Term.Var v -> Hashtbl.replace tbl v true
      | Term.Add (a, b) | Term.Sub (a, b) | Term.Mul (a, b) ->
        note_term a;
        note_term b
      | Term.Neg a -> note_term a
    in
    let note_arith = function
      | Term.Add _ | Term.Sub _ | Term.Mul _ | Term.Neg _ as t -> note_term t
      | Term.Int _ | Term.Str _ | Term.Var _ -> ()
    in
    let rec go = function
      | Formula.True | Formula.False -> ()
      | Formula.Atom (cmp, a, b) ->
        (match cmp with
        | Formula.Lt | Formula.Le | Formula.Gt | Formula.Ge ->
          (* ordering implies numeric on both sides *)
          let rec all_vars = function
            | Term.Var v -> Hashtbl.replace tbl v true
            | Term.Int _ | Term.Str _ -> ()
            | Term.Add (x, y) | Term.Sub (x, y) | Term.Mul (x, y) ->
              all_vars x;
              all_vars y
            | Term.Neg x -> all_vars x
          in
          all_vars a;
          all_vars b
        | Formula.Eq | Formula.Neq -> ());
        note_arith a;
        note_arith b;
        (* equality against an int constant implies numeric *)
        (match (a, b) with
        | Term.Var v, Term.Int _ | Term.Int _, Term.Var v -> Hashtbl.replace tbl v true
        | _ -> ())
      | Formula.And fs | Formula.Or fs -> List.iter go fs
      | Formula.Not f -> go f
    in
    go f;
    tbl

  (* [infer store f] extends [store] with domains for every free variable
      of [f] not already typed. *)
  let infer store f =
    let universe = enum_universe f in
    let numeric = numeric_vars f in
    (* Resolve enum universes across __join__ links (one step suffices for
       rule-sized formulas; iterate to a small fixpoint to be safe). *)
    let resolve v =
      let seen = Hashtbl.create 4 in
      let rec go v acc =
        if Hashtbl.mem seen v then acc
        else begin
          Hashtbl.replace seen v ();
          let entries = try Hashtbl.find universe v with Not_found -> [] in
          List.fold_left
            (fun acc s ->
              if String.length s > 8 && String.sub s 0 8 = "__join__" then
                go (String.sub s 8 (String.length s - 8)) acc
              else if List.mem s acc then acc
              else s :: acc)
            acc entries
        end
      in
      go v []
    in
    List.fold_left
      (fun store v ->
        if Store.find_opt v store <> None then store
        else if Hashtbl.mem numeric v then
          Store.add v (Domain.interval Store.default_int_lo Store.default_int_hi) store
        else
          match resolve v with
          | [] -> Store.add v (Domain.interval Store.default_int_lo Store.default_int_hi) store
          | consts -> Store.add v (Domain.enums (Store.other_value :: consts)) store)
      store (Formula.free_vars f)
end
