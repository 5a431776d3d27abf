(** Backtracking search over a conjunct of atoms.

    Propagate-and-split: after {!Propagate.run} reaches a fixpoint, pick
    the unfixed variable with the smallest domain, bisect it, and recurse.
    Domains are finite so the search terminates; a generous depth cap and
    the caller's {!Budget.t} guard against pathological inputs, and both
    surface as an honest [Unknown] verdict rather than "no model".

    A solve interns its conjunct's variables once: slot [i] is the
    [i]-th variable in string order, domains sit in a flat array that
    each branch copies, and the atoms are compiled to slot-indexed
    terms. Scanning slots in order is scanning names in order, so the
    split variable (smallest domain, ties to the smaller name) is the
    one a name-keyed map would pick. *)

type model = (string * Domain.value) list

let max_depth = 10_000

(* The variables the atoms mention, without duplicates ([Term.vars]
   adds a variable only once), most recently first-seen first: the
   order of a witness's bindings. *)
let relevant_vars atoms =
  List.fold_left (fun acc (_, a, b) -> Term.vars (Term.vars acc a) b) [] atoms

(* The slot of [v] among the sorted, distinct [names]. *)
let slot_of names v =
  let rec go lo hi =
    if lo > hi then raise Not_found;
    let mid = (lo + hi) / 2 in
    let c = String.compare v names.(mid) in
    if c = 0 then mid else if c < 0 then go lo (mid - 1) else go (mid + 1) hi
  in
  go 0 (Array.length names - 1)

(* Evaluate a term under one chosen value per slot, as {!Formula.eval}
   does under an environment: a slot without a value is unbound. *)
let rec value chosen = function
  | Propagate.Int n -> Domain.Int n
  | Propagate.Str s -> Domain.Str s
  | Propagate.Var v -> ( match chosen.(v) with Some x -> x | None -> raise Not_found)
  | Propagate.Add (a, b) -> arith chosen ( + ) a b
  | Propagate.Sub (a, b) -> arith chosen ( - ) a b
  | Propagate.Mul (a, b) -> arith chosen ( * ) a b
  | Propagate.Neg a -> (
    match value chosen a with
    | Domain.Int n -> Domain.Int (-n)
    | Domain.Str _ -> invalid_arg "negation of string")

and arith chosen op a b =
  match (value chosen a, value chosen b) with
  | Domain.Int x, Domain.Int y -> Domain.Int (op x y)
  | _ -> invalid_arg "arithmetic on string"

(* The unfixed slot with the smallest domain, the lowest slot on ties. *)
let split_slot domains =
  let best = ref (-1) and best_size = ref 0 in
  Array.iteri
    (fun i d ->
      let n = Domain.size d in
      if n >= 2 && (!best < 0 || n < !best_size) then begin
        best := i;
        best_size := n
      end)
    domains;
  !best

(** [solve ?budget ?max_depth store atoms] decides the conjunction with
    a three-valued verdict: [Sat model], [Unsat], or [Unknown reason]
    when the depth cap or a budget trips before the search concludes.
    Budget exhaustion is never reported as [Unsat] — that silent
    conversion was a soundness hole (a real threat read as "no
    threat"). *)
let solve ?budget ?(max_depth = max_depth) (store : Store.t) (atoms : Dnf.conjunct) :
    model Budget.verdict =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let vars = relevant_vars atoms in
  let typed =
    List.map
      (fun v ->
        match Store.find_opt v store with
        | Some d -> (v, d)
        | None -> invalid_arg ("Search.solve: variable not in store: " ^ v))
      vars
  in
  let typed = Array.of_list (List.sort (fun (a, _) (b, _) -> String.compare a b) typed) in
  let names = Array.map fst typed in
  let slot = slot_of names in
  let atoms = List.map (Propagate.compile slot) atoms in
  let witness = List.map slot vars in
  let rec go domains depth : model Budget.verdict =
    Budget.spend_node budget ~where:"Search.solve";
    if depth > max_depth then
      Budget.Unknown
        { Budget.trip = Budget.Depth;
          where = Printf.sprintf "Search.solve (depth cap %d)" max_depth }
    else
      match Propagate.run ~budget domains atoms with
      | exception Propagate.Unsat -> Budget.Unsat
      | () -> (
        let chosen = Array.map Domain.choose domains in
        if
          List.for_all
            (fun (cmp, a, b) -> Formula.compare_values cmp (value chosen a) (value chosen b))
            atoms
        then
          (* Greedy model check: the canonical closest-to-zero assignment
             already satisfies every atom at this fixpoint, so no further
             splitting is needed. This collapses the deep bisection of the
             wide default domains for most Sat cases, and yields the same
             witness the zero-first descent would converge to. *)
          Budget.Sat
            (List.filter_map
               (fun i -> Option.map (fun x -> (names.(i), x)) chosen.(i))
               witness)
        else
          match split_slot domains with
          | -1 -> Budget.Unsat
          | v ->
            let left, right = Domain.split domains.(v) in
            (* explore the half nearer zero first for natural witnesses *)
            let first, second =
              if Domain.distance_to_zero right < Domain.distance_to_zero left then (right, left)
              else (left, right)
            in
            (* the first branch works on a copy; the second may reuse
               this node's array, which nothing reads afterwards *)
            let branch half domains =
              domains.(v) <- half;
              go domains (depth + 1)
            in
            (match branch first (Array.copy domains) with
            | Budget.Sat m -> Budget.Sat m
            | Budget.Unsat -> branch second domains
            | Budget.Unknown r -> (
              (* a branch that hit the depth cap leaves the verdict
                 undecided unless the other branch finds a model *)
              match branch second domains with
              | Budget.Sat m -> Budget.Sat m
              | Budget.Unsat | Budget.Unknown _ -> Budget.Unknown r)))
  in
  match go (Array.map snd typed) 0 with
  | verdict -> verdict
  | exception Budget.Exhausted reason -> Budget.Unknown reason
