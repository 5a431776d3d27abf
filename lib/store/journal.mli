(** Append-only write-ahead journal with CRC-framed, epoch-stampable
    records, fsync-point appends, torn-tail truncation and corruption
    quarantine. *)

val frame : string -> string
(** The legacy on-disk framing of one payload:
    ["HGJ1 <len:8hex> <crc32:8hex>\n<payload>\n"]. *)

val frame_epoch : epoch:int -> string -> string
(** Epoch-stamped framing:
    ["HGJ2 <len:8hex> <crc32:8hex> <epoch:8hex>\n<payload>\n"].
    Epoch [0] renders in the legacy [HGJ1] form. *)

val header_len : int
(** Bytes before the payload in a legacy ([HGJ1]) frame. *)

val header_len2 : int
(** Bytes before the payload in an epoch-stamped ([HGJ2]) frame. *)

(** {2 Raw-descriptor I/O}

    The store opens no OCaml channel: each channel's 64 KB buffer is
    charged to the major GC, which a fleet restart's thousands of opens
    turn into hundreds of collections. *)

val read_file : string -> string
(** The whole file, read with [fstat] and a [read] loop into one buffer.
    A missing file reads as [""]; other errors raise [Unix.Unix_error]. *)

val write_sub : Unix.file_descr -> string -> int -> int -> unit
(** [write_sub fd s pos len] writes all [len] bytes of [s] from [pos]. *)

val mkdirs : string -> unit
(** Create a directory and any missing parents; an existing one is left
    as it is. *)

(** {2 Storage faults}

    A test-only hook, disarmed by default: simulated process crashes at
    named crash points, torn (partial) writes and single-bit flips of a
    frame about to be written. Selection is a pure function of the armed
    seed and the point/write key, optionally restricted to keys with a
    given prefix — so a test can target exactly one crash point of one
    append ([~only:"journal/append/synced:journal#3"]) or fan out
    probabilistically. *)

exception Crashed of string
(** The simulated process crash. *)

type storage_mode =
  | Crash  (** raise {!Crashed} at the selected crash point *)
  | Torn  (** truncate the selected write; the writer then crashes *)
  | Flip  (** flip one deterministic bit of the selected write (silent) *)

val arm_storage :
  ?seed:int -> ?rate_per_thousand:int -> ?only:string -> storage_mode -> unit
(** Defaults: seed 1, rate 1000 (every selected key fires — pair with
    [~only] to aim at one point), no prefix restriction. *)

val disarm_storage : unit -> unit
val storage_armed : unit -> bool

val on_write : string -> string -> [ `Write of string | `Torn of string ]
(** Pass a frame about to be written through the armed corruption plan:
    [`Write data] is written as-is (possibly bit-flipped under [Flip]);
    [`Torn prefix] means only the prefix reaches the disk and the caller
    must simulate the crash by raising {!Crashed} after writing it. *)

(** {2 Appending} *)

type t

val open_append : ?fsync:bool -> ?epoch:int -> ?fault_key:string -> string -> t
(** Open (creating if missing) for appends. [~fsync] (default [true])
    makes every {!append} an fsync point. [~epoch] (default [0]) stamps
    every appended frame with the writer's ownership epoch.
    [~fault_key] (default: the file's basename) distinguishes this
    writer in storage-fault keys, so faults against one replica do not
    correlate with the same append on another. *)

val append : t -> string -> unit
(** Frame and append one payload; returns after flush (+ fsync). Passes
    through the storage-fault hooks, so it may raise {!Crashed} under an
    armed fault plan. *)

val close : t -> unit

val write_atomic : ?fsync:bool -> ?epoch:int -> string -> string list -> unit
(** Replace the file with a journal holding exactly these payloads
    (stamped with [epoch]), via temp file + atomic rename + parent
    directory fsync — without the dirfd fsync a power failure after the
    rename could resurrect the replaced contents. Used by compaction
    and recovery. *)

(** {2 Scanning and recovery} *)

type damage =
  | Torn_tail of { offset : int; raw : string }
      (** an incomplete final frame: crash mid-write *)
  | Corrupt of { offset : int; raw : string }
      (** a fully framed record whose CRC fails, or an unframeable
          region skipped by resynchronization *)

type scan = {
  records : string list;  (** valid payloads, in order *)
  spans : (int * int) list;
      (** [(offset, length)] of each valid record's whole frame in the
          scanned bytes, in [records] order — what frame-level repair
          patches with. Frames are not copied out of the image. *)
  epochs : int list;  (** the epoch stamped on each valid frame *)
  damage : damage list;
  first_damage_index : int option;
      (** number of valid records preceding the first damaged region *)
  max_epoch : int;  (** highest epoch stamped on any valid frame *)
  epoch_regressions : int;
      (** valid frames stamped below the running epoch maximum — the
          durable fingerprint of an accepted stale-epoch append; [0] on
          any journal written only by properly fenced owners *)
}

val scan_string : string -> scan
(** A pure function of the bytes: equal images scan equal, so a replica
    set scans each distinct image once ({!Scrub.scan_replicas}). *)

val scan : string -> scan
(** Read-only; a missing file scans as empty. *)

val quarantine_damage : string -> damage list -> unit
(** Append damaged regions to [path]'s quarantine sidecar
    ([path ^ ".quarantine"]), one readable header per region. *)

val corrupt_regions : string -> int
(** The [kind=corrupt] regions recorded in [path]'s quarantine sidecar;
    [0] when there is none. Torn-tail regions do not count. *)
