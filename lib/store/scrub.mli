(** Anti-entropy scrub over a replica set of journal-framed files:
    CRC-scan every replica, compare record-stream digests, and repair
    anything missing, damaged or diverged at {e frame granularity} —
    only the damaged frames are rewritten, so repair I/O is bounded by
    the damage ([repair_bytes]), not the file size. Serves both home
    journals (default [~files]) and the verdict cache's
    [cache.snapshot]/[cache.journal] surface. *)

type home_report = {
  dirs : string list;
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

val scrub_home : ?fsync:bool -> files:string list -> string list -> home_report
(** Scrub one surface given its replica directories. [~files] names the
    journal-framed files within each directory ([Home.home_files], or
    the verdict cache's [Vcache.cache_files]). Callers must ensure no live writer holds the
    journals open (a live {!Home} scrubs itself via {!Home.scrub}). *)

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
