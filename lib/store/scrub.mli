(** Anti-entropy scrub over a replica set of journal-framed files:
    CRC-scan every replica, compare record-stream digests, and repair
    anything missing, damaged or diverged at {e frame granularity} —
    only the damaged frames are rewritten, so repair I/O is bounded by
    the damage ([repair_bytes]), not the file size. {!Surface.scrub}
    runs it over a home's or the verdict cache's replica set.

    It also owns reading a replica set — one read per replica, one scan
    per distinct image, the merge, and the settling of each replica's
    damage — which {!Surface.recover} starts from too. *)

(** {2 Reading a replica set} *)

val merge_records : string list list -> string list
(** The shortest common supersequence of the replicas' record streams —
    every record that survived anywhere, in a consistent order — folded
    pairwise. Each pairwise merge is linear in the shared prefix and
    allocates no table for it: identical replicas, or one that is a few
    frames ahead, merge in one pass. Only the remainder after the first
    disagreement pays the O(n·m) LCS table. *)

type replica_scan = {
  r_path : string;
  r_present : bool;  (** the file existed when it was read *)
  r_image : string;  (** the replica's bytes as read *)
  r_scan : Journal.scan;
}

val scan_replicas : string list -> replica_scan list
(** Read every replica once and scan each distinct byte image once: a
    replica whose bytes equal an earlier one's reuses that scan, since
    {!Journal.scan_string} is a pure function of the bytes. *)

type settled = {
  write : bool;  (** the replica must be written *)
  torn : int;  (** bytes of torn tail *)
  corrupt : int;  (** corrupt frames quarantined *)
  healed : int;  (** merged records the replica had lost *)
}

val settle : merged:int -> stale:bool -> replica_scan -> settled
(** One replica of a file whose merged stream holds [merged] records:
    quarantine its damage into its own sidecar and count it. The
    replica is written when the caller's policy finds it [~stale],
    unless it is an absent file with nothing to hold — a fresh open,
    not a lost replica. Recovery rewrites such a replica whole; scrub
    patches it in place. *)

(** {2 Scrubbing} *)

type home_report = {
  healthy : bool;  (** nothing to do: present, undamaged, converged *)
  converged : bool;  (** one digest across all replicas after the pass *)
  digest : string;
  repaired_replicas : int;  (** replica files patched by read-repair *)
  recreated_replicas : int;  (** replica files that were missing entirely *)
  frames_quarantined : int;
  torn_bytes : int;
  records_healed : int;
  patched_frames : int;  (** frames overlapping the patched byte ranges *)
  repair_bytes : int;  (** bytes written by repair — bounded by damage *)
  epoch : int;  (** fencing floor across the replica set *)
}

val run : ?fsync:bool -> string list list -> home_report
(** Scrub one surface: [files] holds, per logical file in replay order,
    its path in every replica directory, primary first. Callers must
    ensure no live writer holds the files open ({!Surface.scrub} parks
    its writer around the pass). *)

val report_text : home_report -> string
(** One surface's pass as [converged=… repaired=… recreated=…
    quarantined=… healed=… patched-frames=… repair-bytes=…]: the
    verdict cache's line in [fleet scrub] and [fleet chaos]. *)

type counters = {
  homes : int;
  healthy : int;
  repaired_homes : int;
  repaired_replicas : int;
  recreated_replicas : int;
  frames_quarantined : int;
  torn_bytes : int;
  records_healed : int;
  patched_frames : int;
  repair_bytes : int;
  unconverged : int;  (** homes still diverged after repair — must be 0 *)
}

val zero : counters
val add : counters -> home_report -> counters
val counters_text : counters -> string
