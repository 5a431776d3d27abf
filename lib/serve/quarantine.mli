(** Poison-app quarantine policy: K consecutive analysis failures trip
    quarantine. In-memory counting only — durability belongs to
    {!Homeguard_store.Home}, which journals quarantine events; the
    broker bridges the two. *)

type t

val create : ?threshold:int -> unit -> t
(** Default threshold: 3 consecutive failures.
    @raise Invalid_argument when [threshold < 1]. *)

val note_failure :
  t -> app:string -> reason:string -> [ `Counted of int | `Quarantined of string ]
(** [`Quarantined reason] on the K-th consecutive failure and every
    failure after; [`Counted n] below the threshold. *)

val note_success : t -> string -> unit
(** Reset the consecutive-failure counter (streaks trip quarantine, not
    lifetime totals). No effect on already-quarantined apps. *)

val restore : t -> app:string -> reason:string -> unit
(** Seed a quarantine recovered from the journal, without counting. *)

val clear : t -> string -> bool
(** Lift a quarantine and forget the history; [false] if not
    quarantined. *)

val is_quarantined : t -> string -> bool
val failure_count : t -> string -> int
