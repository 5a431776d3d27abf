(** Anti-entropy scrub over a replica set of journal-framed files:
    CRC-scan every replica, compare record-stream digests, and repair
    anything missing, damaged or diverged at {e frame granularity} —
    only the damaged frames are rewritten, so repair I/O is bounded by
    the damage ([repair_bytes]), not the file size. {!Surface.scrub}
    runs it over a home's or the verdict cache's replica set. *)

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
