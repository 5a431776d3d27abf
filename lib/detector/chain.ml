(** Chained CAI threats (paper §VI-D).

    Users may keep apps despite reported pairwise threats; those pairs
    are recorded in the [Allowed] list. When a new rule r1 interferes
    with an installed rule r2, r1 may also interfere *indirectly* with
    rules r2 already (admittedly) interferes with. This module closes
    covert-triggering edges transitively over the Allowed list. *)

module Rule = Homeguard_rules.Rule

(** A pairwise interference the user decided to keep. *)
type allowed_edge = {
  from_rule : string;  (** rule id *)
  to_rule : string;
  category : Threat.category;
}

type t = { mutable edges : allowed_edge list }

let create () = { edges = [] }

(** Record all directional edges of accepted threats. *)
let allow t (threats : Threat.t list) =
  let edges =
    List.concat_map
      (fun (th : Threat.t) ->
        let fwd =
          {
            from_rule = th.Threat.rule1.Rule.rule_id;
            to_rule = th.Threat.rule2.Rule.rule_id;
            category = th.Threat.category;
          }
        in
        if Threat.is_directional th.Threat.category then [ fwd ]
        else
          [
            fwd;
            {
              from_rule = th.Threat.rule2.Rule.rule_id;
              to_rule = th.Threat.rule1.Rule.rule_id;
              category = th.Threat.category;
            };
          ])
      threats
  in
  t.edges <- edges @ t.edges

(** Drop every allowed edge touching a rule id with this prefix — used
    when an app is uninstalled (rule ids are ["<app>#<n>"], so the
    prefix ["<app>#"] selects exactly its rules). *)
let disallow_prefix t prefix =
  let p = String.length prefix in
  let touches id = String.length id >= p && String.sub id 0 p = prefix in
  t.edges <- List.filter (fun e -> not (touches e.from_rule || touches e.to_rule)) t.edges

let allowed_edges t = t.edges

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

(** [find_chains t new_threats] — starting from each freshly detected
    propagating edge, follow allowed propagating edges to longer chains
    (3+ rules, cycle-free). *)
let find_chains t (new_threats : Threat.t list) =
  let all_edges =
    t.edges
    @ List.map
        (fun (th : Threat.t) ->
          {
            from_rule = th.Threat.rule1.Rule.rule_id;
            to_rule = th.Threat.rule2.Rule.rule_id;
            category = th.Threat.category;
          })
        new_threats
  in
  (* from_rule -> its propagating edges, in list order, built once per
     call so a search step reads only its own successors *)
  let index = Hashtbl.create 256 in
  List.iter
    (fun e -> if propagating e.category then Hashtbl.add index e.from_rule e)
    (List.rev all_edges);
  let max_len = 6 in
  (* every path of [len] >= 3 rules is a chain; the result is sorted,
     so the order they are found in does not matter *)
  let chains = ref [] in
  let rec extend visited len cats rule_id =
    if len >= 3 then chains := { rules = List.rev visited; categories = List.rev cats } :: !chains;
    if len < max_len then
      List.iter
        (fun e ->
          if not (List.mem e.to_rule visited) then
            extend (e.to_rule :: visited) (len + 1) (e.category :: cats) e.to_rule)
        (Hashtbl.find_all index rule_id)
  in
  List.iter
    (fun (th : Threat.t) ->
      if propagating th.Threat.category then
        let r1 = th.Threat.rule1.Rule.rule_id and r2 = th.Threat.rule2.Rule.rule_id in
        extend [ r2; r1 ] 2 [ th.Threat.category ] r2)
    new_threats;
  List.sort_uniq compare_chain !chains
