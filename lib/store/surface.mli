(** A durable surface: one snapshot file plus one journal file,
    replicated over a list of directories (primary first). Homes and the
    verdict cache are both surfaces; this module owns their layout,
    recovery, epoch floor, replicated writer, compaction, scrub and the
    damage evidence on disk. *)

type kind =
  | Home  (** [snapshot] and [journal] *)
  | Cache  (** [cache.snapshot] and [cache.journal] *)

type t

val at : ?fsync:bool -> kind -> string list -> t
(** The surface of this kind over these replica directories, primary
    first. Touches no file; the writer starts parked. [~fsync] (default
    [true]) applies to every append, rewrite and repair.
    @raise Invalid_argument on an empty directory list. *)

val dirs : t -> string list

val replica_files : t -> int -> string list
(** The surface's files in the [i]th replica directory (primary [0]),
    snapshot first. *)

(** {2 Recovery} *)

type recovery = {
  snapshot : Rjournal.recovery;
  journal : Rjournal.recovery;
  floor : int;  (** the highest epoch stamped on any frame of either file *)
}

val recover : t -> recovery
(** Create missing directories, then run the merged read-repairing
    recovery ({!Rjournal.recover}) over the snapshot and then the
    journal of every replica. *)

(** {2 The writer} *)

val open_writer : ?fence_key:string -> t -> epoch:int -> unit
(** Park any open writer and open one on every replica's journal that
    stamps [epoch] on each frame and, given [~fence_key], passes
    {!Fence.check} under that key before each append. {!compact} and
    {!scrub} reopen it at the same epoch and key. *)

val epoch : t -> int
(** The epoch the writer stamps (or stamped, while parked); [0] before
    the first {!open_writer}. *)

val is_open : t -> bool

val append : t -> string -> unit
(** Append one payload to every replica ({!Rjournal.append}).
    @raise Invalid_argument while the writer is parked. *)

val close : t -> unit
(** Park the writer; idempotent. *)

(** {2 Maintenance} *)

val compact : t -> string list -> unit
(** Park the writer, atomically replace the snapshot on every replica
    with these payloads and truncate every journal (both stamped at
    {!epoch}), then reopen the writer. *)

val scrub : t -> Scrub.home_report
(** Frame-level anti-entropy pass over both files ({!Scrub.run}). A
    live writer is parked around the pass and reopened; a parked one
    stays parked, so the same call serves live and offline scrub. *)

(** {2 Reading back} *)

val sizes : t -> int * int
(** Bytes in the primary's snapshot and journal; a missing file is [0]. *)

val corrupt_regions : t -> int list
(** Per replica directory, primary first: the [kind=corrupt] regions
    recorded in both files' quarantine sidecars — durable evidence that a
    past recovery or scrub quarantined a corrupted record. Torn-tail
    regions do not count: a torn append raises before it is
    acknowledged, so truncating it never loses acknowledged state, while
    a corrupt record can. Unlike a recovery report, the count survives
    any number of restarts. *)

val epoch_regressions : t -> int
(** Frames on any replica stamped below the running epoch maximum of
    their file — the durable trace of an accepted stale-epoch append. *)

val records : t -> string list
(** Every valid record of every file on every replica, as scanned. *)
