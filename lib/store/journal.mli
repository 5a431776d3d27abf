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
    through the {!Homeguard_solver.Fault} storage hooks, so it may raise
    {!Homeguard_solver.Fault.Crashed} under an armed fault plan. *)

val sync : t -> unit
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
  frames : string list;
      (** the exact on-disk frame bytes of each valid record, in
          [records] order — what frame-level repair patches with *)
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
val scan : string -> scan
(** Read-only; a missing file scans as empty. *)

type recovery = {
  recovered : string list;
  torn_bytes : int;  (** bytes truncated from the torn tail *)
  quarantined : int;  (** corrupt regions moved to the sidecar *)
  damage_index : int option;
  rewritten : bool;  (** the journal was rewritten without the damage *)
  max_epoch : int;  (** fencing floor recovered from the frames *)
}

val quarantine_damage : ?quarantine:string -> string -> damage list -> unit
(** Append damaged regions to [path]'s quarantine sidecar (default
    [path ^ ".quarantine"]), one readable header per region. *)

val recover : ?quarantine:string -> ?fsync:bool -> string -> recovery
(** Scan; when damaged, append each damaged region to the quarantine
    sidecar (default [path ^ ".quarantine"]) and atomically rewrite the
    journal with only the valid records, re-stamped at the scan's
    highest epoch so the fencing floor survives the rewrite. *)
