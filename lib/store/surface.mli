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

type replica_report = {
  path : string;
  present : bool;  (** the file existed before recovery *)
  records : int;  (** valid records this replica held *)
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
  repaired : bool;  (** rewritten to the merged stream *)
}

type file_recovery = {
  recovered : string list;  (** the merged record stream *)
  replicas : replica_report list;
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
      (** most conservative (lowest) first-damage index across replicas *)
  max_epoch : int;  (** fencing floor across all replicas *)
  diverged : bool;
  healed : int;  (** records restored to replicas that had lost them *)
  all_replicas_damaged : bool;
      (** every replica was damaged or missing (and at least one was
          actually damaged): only then can the merge itself have lost
          acknowledged records *)
}

type recovery = {
  snapshot : file_recovery;
  journal : file_recovery;
  floor : int;  (** the highest epoch stamped on any frame of either file *)
}

val recover : t -> recovery
(** Create missing directories, then recover the snapshot and then the
    journal: read every replica ({!Scrub.scan_replicas}), merge the
    surviving records ({!Scrub.merge_records}), quarantine each
    replica's damage into its own sidecar and atomically rewrite every
    damaged, stale or missing replica with the merged stream, stamped at
    the highest epoch seen. *)

(** {2 The writer} *)

val open_writer : ?fence_key:string -> t -> epoch:int -> unit
(** Park any open writer and open one {!Journal} writer on every
    replica's journal, each stamping [epoch] on every frame. Given
    [~fence_key], each append and each {!compact} first passes
    {!Fence.check} under that key and [epoch]. {!compact} and {!scrub}
    reopen it at the same epoch and key. With more than one replica,
    the [i]th replica's storage-fault key is [r<i>/<dir>/<name>]; a
    single replica keeps the bare basename. *)

val epoch : t -> int
(** The epoch the writer stamps (or stamped, while parked); [0] before
    the first {!open_writer}. *)

val is_open : t -> bool

val append : t -> string -> unit
(** Check the fence once, then append one payload to every replica in
    order.
    @raise Fence.Stale when a later epoch holds the fence key: nothing
    is written.
    @raise Journal.Crashed on a simulated crash mid-sequence: earlier
    replicas keep the record, later ones never see it, and merged
    recovery absorbs the difference.
    @raise Invalid_argument while the writer is parked. *)

val close : t -> unit
(** Park the writer; idempotent. *)

(** {2 Maintenance} *)

val compact : t -> string list -> unit
(** Check the fence, park the writer, atomically replace the snapshot
    on every replica with these payloads and truncate every journal
    (both stamped at {!epoch}), then reopen the writer.
    @raise Fence.Stale when a later epoch holds the writer's fence key:
    no file is touched. *)

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
