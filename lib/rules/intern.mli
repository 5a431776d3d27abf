(** Bounded, locked, per-process tables of immutable values, and the
    one table that makes every holder of an app share one physical
    {!Rule.smartapp}.

    A table is emptied when it reaches its bound and is guarded by a
    mutex, because audits run on several domains. Only values that are
    safe to share may go in: nothing mutable, and never the result of a
    failed computation. *)

type ('k, 'v) t

val create : bound:int -> ('k, 'v) t

val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> 'v
(** [add t k v] holds [v] under [k] unless [k] already holds a value;
    returns the held value (the first one wins a race). *)

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Hold [v] under [k], dropping whatever [k] held. *)

val share_app : Rule.smartapp -> Rule.smartapp
(** The one physical app per name: the held app when it is
    structurally equal to [app] (physically equal costs one pointer
    compare), else [app], which then replaces the held one. The result
    is always [=] to [app]. The table is emptied when it holds 1,024
    names. Live extraction and journal replay both go through it, so a
    home's live and recovered apps, and every home's copy of a catalog
    app, are one value: identity checks downstream (the pair index, the
    verdict cache's key parts) then hit. *)
