(** Process-wide epoch fencing for journal ownership: the registry of
    the highest ownership epoch granted per home, consulted on every
    durable append so a stalled-then-revived writer can never corrupt a
    home that was rebalanced away from it. *)

exception Stale of { key : string; held : int; current : int }
(** Raised by {!check} when a later epoch has been granted for the key:
    the caller is a split-brain writer and must not touch the disk. *)

val acquire : string -> int -> int
(** [acquire key epoch] registers [epoch] as granted for [key] (keeping
    the maximum — an old grant never lowers the fence) and returns the
    current epoch after the acquire. *)

val current : string -> int
(** Highest epoch granted for the key ([0] when never granted). *)

val check : key:string -> epoch:int -> unit
(** Gate one append made under [epoch].
    @raise Stale (counted) when the fence holds a later epoch. *)

val rejections : unit -> int
(** Stale appends rejected process-wide. *)

val rejections_for : string -> int

val with_enforced : bool -> (unit -> 'a) -> 'a
(** [with_enforced false f] runs [f] with {!check} a no-op — the
    deliberately reintroduced split-brain bug that chaos campaigns use
    to prove the invariants (and the repro shrinker) catch an unfenced
    fleet — and restores the previous setting on every exit path.
    [with_enforced true f] runs [f] fenced. Campaign only; production
    never clears the fence. *)
