(** Top-level constraint-satisfaction interface.

    This is HomeGuard's substitute for the JaCoP solver: decide
    satisfiability of quantifier-free formulas over bounded integers and
    enumerated strings, and return a witness model used to explain under
    which situation two rules interfere (paper §VI-A2).

    There is one solve path: {!solve} walks the formula's lazy DNF
    ({!Dnf.of_formula}) conjunct by conjunct, runs propagate-and-split
    ({!Search.solve}) on each, and stops at the first Sat, so a witness
    is always the first satisfiable conjunct's model. It answers with
    the three-valued {!verdict}: [Sat model], [Unsat], or
    [Unknown reason] when the caller's {!Budget.t} (or the search depth
    cap, or a test-only injected fault) trips before the solve
    concludes. *)

type model = Search.model

type verdict = model Budget.verdict
(** [Sat model | Unsat | Unknown of Budget.reason]. *)

(** The A/B switch {!Domain.bitset_enabled} changes which code paths a
    solve exercises; any cache shared across processes or runs must key
    on it. The inert [Formula.memo_enabled] is read so keys keep their bytes. *)
let flags_fingerprint () =
  Printf.sprintf "bs%c.mm%c"
    (if !Domain.bitset_enabled then '1' else '0')
    (if !Formula.memo_enabled then '1' else '0')

(* Three-valued "or" over a sequence of sub-solves, walked in order:
   the first Sat wins and stops the walk, all Unsat is Unsat, otherwise
   the first Unknown is reported. Out of node fuel the walk stops: every
   later {!Search.solve} would trip at its first node. *)
let fold_verdicts solve_one items : verdict =
  let rec go acc items =
    match items () with
    | Seq.Nil -> acc
    | Seq.Cons (item, rest) -> (
      match solve_one item with
      | Budget.Sat m -> Budget.Sat m
      | Budget.Unsat -> go acc rest
      | Budget.Unknown r -> (
        let acc = match acc with Budget.Unknown _ -> acc | _ -> Budget.Unknown r in
        match r.Budget.trip with Budget.Node_fuel -> acc | _ -> go acc rest))
  in
  go Budget.Unsat items

(* The fault-injection key is the formula itself: deterministic for a
   given solve regardless of call order or domain count. *)
let inject_faults f = if Fault.armed () then Fault.check (Formula.to_string f)

(** [solve ?budget store f] — propagate-and-split over each conjunct of
    the lazy DNF in turn, stopping at the first Sat; the store is closed
    over free variables via {!Store.infer}. *)
let solve ?budget store f : verdict =
  let store = Store.infer store f in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  match
    inject_faults f;
    fold_verdicts (Search.solve ~budget store) (Dnf.of_formula f)
  with
  | verdict -> verdict
  | exception Budget.Exhausted reason -> Budget.Unknown reason
