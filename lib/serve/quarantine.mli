(** Poison-app quarantine policy: K consecutive analysis failures trip
    quarantine. In-memory streak counting only — which apps are
    quarantined is {!Homeguard_store.Home}'s journaled record; the
    broker bridges the two. *)

type t

val create : ?threshold:int -> unit -> t
(** Default threshold: 3 consecutive failures.
    @raise Invalid_argument when [threshold < 1]. *)

val note_failure :
  t -> app:string -> reason:string -> [ `Counted of int | `Quarantined of string ]
(** [`Quarantined reason] on the K-th consecutive failure, which starts
    the streak over; [`Counted n] below the threshold. *)

val note_success : t -> string -> unit
(** Reset the consecutive-failure counter (streaks trip quarantine, not
    lifetime totals). *)
