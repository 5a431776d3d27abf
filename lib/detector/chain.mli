(** Chained CAI threats through the Allowed list (paper §VI-D). *)

type chain = { rules : string list; categories : Threat.category list }

val chain_to_string : chain -> string

val compare_chain : chain -> chain -> int
(** Exactly polymorphic [compare]'s order on chains, monomorphically:
    rules element-wise by [String.compare] (a prefix first), then
    categories in constructor order. *)

val find_chains : Threat.t list -> Threat.t list -> chain list
(** [find_chains kept fresh] extends the freshly detected propagating
    threats (CT/EC) through the kept ones into chains of three or more
    rules. *)
