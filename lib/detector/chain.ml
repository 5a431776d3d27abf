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
  let successors rule_id = Hashtbl.find_all index rule_id in
  let max_len = 6 in
  let rec extend visited cats rule_id =
    let chains_here =
      if List.length visited >= 3 then
        [ { rules = List.rev visited; categories = List.rev cats } ]
      else []
    in
    if List.length visited >= max_len then chains_here
    else
      chains_here
      @ List.concat_map
          (fun e ->
            if List.mem e.to_rule visited then []
            else extend (e.to_rule :: visited) (e.category :: cats) e.to_rule)
          (successors rule_id)
  in
  List.concat_map
    (fun (th : Threat.t) ->
      if not (propagating th.Threat.category) then []
      else
        let r1 = th.Threat.rule1.Rule.rule_id and r2 = th.Threat.rule2.Rule.rule_id in
        extend [ r2; r1 ] [ th.Threat.category ] r2)
    new_threats
  |> List.sort_uniq compare
