(** Chained CAI threats (paper §VI-D).

    Users may keep apps despite reported pairwise threats; those pairs
    are recorded in the [Allowed] list (the install flow's kept
    threats). When a new rule r1 interferes with an installed rule r2,
    r1 may also interfere *indirectly* with rules r2 already
    (admittedly) interferes with. This module closes covert-triggering
    edges transitively over the Allowed list. *)

module Rule = Homeguard_rules.Rule

(** A chained threat: a path of covert-triggering (or enabling) edges
    from a new rule through allowed pairs. *)
type chain = { rules : string list; categories : Threat.category list }

let chain_to_string c =
  String.concat " -> " c.rules
  ^ " ["
  ^ String.concat "," (List.map Threat.category_to_string c.categories)
  ^ "]"

(* Edges that propagate influence forward. *)
let propagating = function Threat.CT | Threat.EC -> true | _ -> false

let category_rank = function
  | Threat.AR -> 0
  | Threat.GC -> 1
  | Threat.CT -> 2
  | Threat.SD -> 3
  | Threat.LT -> 4
  | Threat.EC -> 5
  | Threat.DC -> 6

let rec compare_list cmp l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = cmp x y in
    if c <> 0 then c else compare_list cmp xs ys

(** Polymorphic [compare]'s order on chains, without its generic
    traversal: rules first, by [String.compare] element-wise with a
    prefix first, then categories in constructor order. *)
let compare_chain c1 c2 =
  let c = compare_list String.compare c1.rules c2.rules in
  if c <> 0 then c
  else
    compare_list (fun a b -> Int.compare (category_rank a) (category_rank b)) c1.categories
      c2.categories

(** [find_chains kept fresh] — starting from each freshly detected
    propagating edge, follow kept propagating threats to longer chains
    (3+ rules, cycle-free). *)
let find_chains (kept : Threat.t list) (fresh : Threat.t list) =
  (* rule id -> the propagating threats leaving it, built once per call
     so a search step reads only its own successors; CT and EC are
     directional, so a threat is an edge from its rule1 to its rule2 *)
  let index = Hashtbl.create 256 in
  let add (th : Threat.t) =
    if propagating th.Threat.category then Hashtbl.add index th.Threat.rule1.Rule.rule_id th
  in
  List.iter add fresh;
  List.iter add kept;
  let max_len = 6 in
  (* every path of [len] >= 3 rules is a chain; the result is sorted,
     so the order they are found in does not matter *)
  let chains = ref [] in
  let rec extend visited len cats rule_id =
    if len >= 3 then chains := { rules = List.rev visited; categories = List.rev cats } :: !chains;
    if len < max_len then
      List.iter
        (fun (th : Threat.t) ->
          let next = th.Threat.rule2.Rule.rule_id in
          if not (List.mem next visited) then
            extend (next :: visited) (len + 1) (th.Threat.category :: cats) next)
        (Hashtbl.find_all index rule_id)
  in
  List.iter
    (fun (th : Threat.t) ->
      if propagating th.Threat.category then
        let r1 = th.Threat.rule1.Rule.rule_id and r2 = th.Threat.rule2.Rule.rule_id in
        extend [ r2; r1 ] 2 [ th.Threat.category ] r2)
    fresh;
  List.sort_uniq compare_chain !chains
