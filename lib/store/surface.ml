(** A durable surface: one snapshot file plus one journal file,
    replicated over a list of directories (primary first).

    A home and the fleet's verdict cache are both durable surfaces; they
    differ only in their two file names and in what their records mean.
    This module owns everything else, once: the layout, merged recovery
    of the snapshot then the journal and the epoch floor it yields, the
    replicated writer (park and reopen at an epoch, with or without a
    fence key), compaction, live and offline scrub, and the damage
    evidence read back from disk. {!Home} and the verdict cache keep
    only their record codecs, replay and epoch policy. *)

type kind = Home | Cache

type t = {
  kind : kind;
  dirs : string list;  (** replica directories, primary first *)
  fsync : bool;
  mutable writer : Rjournal.t option;
  mutable epoch : int;  (** stamped by the writer; kept while parked *)
  mutable fence_key : string option;  (** gates the writer's appends *)
}

(* The file names on disk, snapshot first: recovery replays in this
   order. *)
let names = function
  | Home -> [ "snapshot"; "journal" ]
  | Cache -> [ "cache.snapshot"; "cache.journal" ]

let at ?(fsync = true) kind dirs =
  if dirs = [] then invalid_arg "Surface.at: no replica dirs";
  { kind; dirs; fsync; writer = None; epoch = 0; fence_key = None }

let dirs t = t.dirs
let epoch t = t.epoch

(* file-major: one row per file, one path per replica directory *)
let paths t =
  List.map (fun name -> List.map (fun d -> Filename.concat d name) t.dirs) (names t.kind)

let snapshot_paths t = List.hd (paths t)
let journal_paths t = List.nth (paths t) 1

let replica_files t i =
  let d = List.nth t.dirs i in
  List.map (Filename.concat d) (names t.kind)

(* -- recovery ------------------------------------------------------------------ *)

type recovery = {
  snapshot : Rjournal.recovery;
  journal : Rjournal.recovery;
  floor : int;
}

let recover t =
  List.iter Rjournal.mkdirs t.dirs;
  let snapshot = Rjournal.recover ~fsync:t.fsync (snapshot_paths t) in
  let journal = Rjournal.recover ~fsync:t.fsync (journal_paths t) in
  { snapshot; journal; floor = max snapshot.Rjournal.max_epoch journal.Rjournal.max_epoch }

(* -- the writer ---------------------------------------------------------------- *)

let close t =
  match t.writer with
  | None -> ()
  | Some w ->
    t.writer <- None;
    Rjournal.close w

let open_writer ?fence_key t ~epoch =
  close t;
  t.epoch <- epoch;
  t.fence_key <- fence_key;
  t.writer <-
    Some (Rjournal.open_append ~fsync:t.fsync ~epoch ?fence_key (journal_paths t))

let reopen t = open_writer ?fence_key:t.fence_key t ~epoch:t.epoch
let is_open t = t.writer <> None

let append t payload =
  match t.writer with
  | Some w -> Rjournal.append w payload
  | None -> invalid_arg "Surface.append: the writer is parked"

(* -- maintenance --------------------------------------------------------------- *)

(* Both replacements are atomic renames on every replica; a crash
   between them leaves a journal that replays over the new snapshot. *)
let compact t payloads =
  close t;
  List.iter Rjournal.mkdirs t.dirs;
  let write payloads =
    List.iter (fun p -> Journal.write_atomic ~fsync:t.fsync ~epoch:t.epoch p payloads)
  in
  write payloads (snapshot_paths t);
  write [] (journal_paths t);
  reopen t

let scrub t =
  let live = is_open t in
  close t;
  let report = Scrub.run ~fsync:t.fsync (paths t) in
  if live then reopen t;
  report

(* -- reading back -------------------------------------------------------------- *)

let sizes t =
  let size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0 in
  (size (List.hd (snapshot_paths t)), size (List.hd (journal_paths t)))

let corrupt_regions t =
  List.mapi
    (fun i _ ->
      List.fold_left (fun a p -> a + Journal.corrupt_regions p) 0 (replica_files t i))
    t.dirs

let scans t = List.concat_map (List.map Journal.scan) (paths t)

let epoch_regressions t =
  List.fold_left (fun a sc -> a + sc.Journal.epoch_regressions) 0 (scans t)

let records t = List.concat_map (fun sc -> sc.Journal.records) (scans t)
