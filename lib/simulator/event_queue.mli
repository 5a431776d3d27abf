(** Deterministic time-ordered event queue: same-time entries pop in
    insertion order. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> int -> 'a -> unit

val pop_until : 'a t -> int -> (int * 'a) option
(** [pop_until q bound] pops the earliest entry scheduled at or before
    [bound]; later entries stay queued. Same-time entries still pop in
    insertion order. *)
