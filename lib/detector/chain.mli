(** Chained CAI threats through the Allowed list (paper §VI-D). *)

type allowed_edge = {
  from_rule : string;
  to_rule : string;
  category : Threat.category;
}

type t

val create : unit -> t

val allow : t -> Threat.t list -> unit
(** Record the edges of threats the user decided to keep. *)

val disallow_prefix : t -> string -> unit
(** Drop every allowed edge touching a rule id with this prefix
    (["<app>#"] removes an uninstalled app's edges). *)

val allowed_edges : t -> allowed_edge list

type chain = { rules : string list; categories : Threat.category list }

val chain_to_string : chain -> string

val compare_chain : chain -> chain -> int
(** Exactly polymorphic [compare]'s order on chains, monomorphically:
    rules element-wise by [String.compare] (a prefix first), then
    categories in constructor order. *)

val find_chains : t -> Threat.t list -> chain list
(** Extend freshly detected propagating edges (CT/EC) through allowed
    edges into chains of three or more rules. *)
