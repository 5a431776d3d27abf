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
  mutable writers : Journal.t list;
      (** one per replica's journal, in replica order; [[]] while parked *)
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
  { kind; dirs; fsync; writers = []; epoch = 0; fence_key = None }

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

type replica_report = {
  path : string;
  present : bool;  (** the file existed before recovery *)
  records : int;  (** valid records this replica held *)
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
  repaired : bool;  (** rewritten to the merged records *)
}

type file_recovery = {
  recovered : string list;  (** the merged record stream *)
  replicas : replica_report list;
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
      (** most conservative (lowest) first-damage index across replicas *)
  max_epoch : int;
  diverged : bool;  (** replicas disagreed before repair *)
  healed : int;
      (** records restored to at least one replica that had lost them *)
  all_replicas_damaged : bool;
      (** every replica surfaced damage: merged recovery may still have
          lost acknowledged records (the honest-loss case) *)
}

type recovery = {
  snapshot : file_recovery;
  journal : file_recovery;
  floor : int;
}

(* Merge one file's replicas, quarantine each replica's damage and
   rewrite every damaged or stale one whole, at the set's highest
   epoch: the rewrite is a temp file and a rename, so recovery is
   crash-safe even with one replica. *)
let recover_file ~fsync paths =
  let scans = Scrub.scan_replicas paths in
  let merged = Scrub.merge_records (List.map (fun r -> r.Scrub.r_scan.Journal.records) scans) in
  let merged_len = List.length merged in
  let max_epoch = List.fold_left (fun a r -> max a r.Scrub.r_scan.Journal.max_epoch) 0 scans in
  let diverged = ref false and healed = ref 0 in
  let replicas =
    List.map
      (fun ({ Scrub.r_path = path; r_present = present; r_scan = sc; _ } as r) ->
        let stale = not (List.equal String.equal sc.Journal.records merged) in
        if stale then diverged := true;
        let s = Scrub.settle ~merged:merged_len ~stale:(stale || sc.Journal.damage <> []) r in
        if s.Scrub.write then Journal.write_atomic ~fsync ~epoch:max_epoch path merged;
        healed := !healed + s.Scrub.healed;
        {
          path;
          present;
          records = List.length sc.Journal.records;
          torn_bytes = s.Scrub.torn;
          quarantined = s.Scrub.corrupt;
          damage_index = sc.Journal.first_damage_index;
          repaired = s.Scrub.write;
        })
      scans
  in
  let hurt (r : replica_report) = r.torn_bytes > 0 || r.quarantined > 0 in
  {
    recovered = merged;
    replicas;
    torn_bytes = List.fold_left (fun a (r : replica_report) -> a + r.torn_bytes) 0 replicas;
    quarantined = List.fold_left (fun a (r : replica_report) -> a + r.quarantined) 0 replicas;
    damage_index =
      List.fold_left
        (fun acc (r : replica_report) ->
          match (acc, r.damage_index) with
          | None, d | d, None -> d
          | Some a, Some b -> Some (min a b))
        None replicas;
    max_epoch;
    diverged = !diverged;
    healed = !healed;
    all_replicas_damaged =
      (* a missing replica contributed nothing to the merge, so damage
         everywhere-else plus a destroyed copy is still honest loss; a
         merely-missing set with no damage anywhere is a fresh open *)
      List.exists hurt replicas
      && List.for_all (fun (r : replica_report) -> hurt r || not r.present) replicas;
  }

let recover t =
  List.iter Journal.mkdirs t.dirs;
  let snapshot = recover_file ~fsync:t.fsync (snapshot_paths t) in
  let journal = recover_file ~fsync:t.fsync (journal_paths t) in
  { snapshot; journal; floor = max snapshot.max_epoch journal.max_epoch }

(* -- the writer ---------------------------------------------------------------- *)

let close t =
  let ws = t.writers in
  t.writers <- [];
  List.iter Journal.close ws

(* Replica-distinct storage-fault keys: the replica's index, the
   journal's directory and its name ("r1/h_kitchen/journal"), so a
   deterministic fault plan never tears the same logical append on
   every replica at once. The index, not the replica root's name, keys
   the replica: the primary's root is the fleet directory itself, and a
   fault plan must not move with where that directory lives. A
   single-replica journal keeps the bare basename, preserving the
   established fault-matrix keys. *)
let fault_key_of replica path =
  Printf.sprintf "r%d/%s/%s" replica
    (Filename.basename (Filename.dirname path))
    (Filename.basename path)

let open_writer ?fence_key t ~epoch =
  close t;
  t.epoch <- epoch;
  t.fence_key <- fence_key;
  let single = List.compare_length_with t.dirs 1 = 0 in
  t.writers <-
    List.mapi
      (fun i path ->
        let fault_key = if single then None else Some (fault_key_of i path) in
        Journal.open_append ~fsync:t.fsync ~epoch ?fault_key path)
      (journal_paths t)

let reopen t = open_writer ?fence_key:t.fence_key t ~epoch:t.epoch
let is_open t = match t.writers with [] -> false | _ :: _ -> true

(* Appends and compaction are made under the writer's epoch: a stale
   owner is refused before it touches the disk. *)
let check_fence t =
  Option.iter (fun key -> Fence.check ~key ~epoch:t.epoch) t.fence_key

let append t payload =
  match t.writers with
  | [] -> invalid_arg "Surface.append: the writer is parked"
  | writers ->
    check_fence t;
    List.iter (fun j -> Journal.append j payload) writers

(* -- maintenance --------------------------------------------------------------- *)

(* Both replacements are atomic renames on every replica; a crash
   between them leaves a journal that replays over the new snapshot. *)
let compact t payloads =
  check_fence t;
  close t;
  List.iter Journal.mkdirs t.dirs;
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
