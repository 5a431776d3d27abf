(** Anti-entropy scrub over a home's replica set.

    A scrub pass CRC-scans the snapshot and journal of every replica
    directory, compares the replicas' {e record-stream digests} (replay
    is deterministic — the replay-determinism property suite pins this
    — so byte-identical record streams imply byte-identical
    {!Home.state_digest}s without paying a detection pass per replica),
    and when anything is missing, damaged or diverged repairs at {e
    frame granularity}: the merged record stream is aligned against each
    replica's surviving frames, a byte-exact target image is built that
    keeps every frame the replica already holds and splices donor frames
    only where records are missing, and the replica file is patched in
    place between the first and last differing byte. Repair I/O is
    bounded by the damage ([repair_bytes], [patched_frames]), not by the
    file size — a single flipped byte costs a single-byte write, where
    the old read-repair rewrote the whole replica set. A healthy home is
    untouched — a second pass over a repaired fleet reports all-healthy
    and writes nothing.

    The in-place patch is not atomic: a crash mid-patch leaves a frame
    whose CRC fails, which the next scrub quarantines and re-repairs
    from the surviving replicas — convergence is reached by retry, never
    lost. The same pass serves any journal-framed surface: [~files]
    selects the logical file names, so the verdict cache's
    [cache.snapshot]/[cache.journal] replicas converge under the exact
    contract (and counters) as home journals. *)

let default_files = [ "snapshot"; "journal" ]

let files_of_dir dir = [ Filename.concat dir "snapshot"; Filename.concat dir "journal" ]

(** Record-stream digest of one replica directory: the digest of every
    valid record of every file in [~files] order. Missing files digest
    as empty streams, so a destroyed replica simply disagrees with its
    healthy siblings. *)
let dir_digest ?(files = default_files) dir =
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      let sc = Journal.scan (Filename.concat dir name) in
      List.iter
        (fun r ->
          Buffer.add_string b (string_of_int (String.length r));
          Buffer.add_char b ':';
          Buffer.add_string b r)
        sc.Journal.records;
      Buffer.add_char b '|')
    files;
  Digest.to_hex (Digest.string (Buffer.contents b))

type home_report = {
  dirs : string list;
  healthy : bool;  (** nothing to do: present, undamaged, converged *)
  converged : bool;  (** all replicas share one digest after the pass *)
  digest : string;  (** the (post-repair) record-stream digest *)
  repaired_replicas : int;  (** replica files patched by read-repair *)
  recreated_replicas : int;  (** replica files that were missing entirely *)
  frames_quarantined : int;
  torn_bytes : int;
  records_healed : int;  (** records restored to replicas that lost them *)
  patched_frames : int;  (** frames overlapping the patched byte ranges *)
  repair_bytes : int;  (** bytes actually written by repair — bounded by damage *)
  epoch : int;  (** fencing floor across the replica set *)
}

(* -- frame-level repair of one logical file across the replica set ------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let write_all fd b =
  let rec go off rem =
    if rem > 0 then begin
      let n = Unix.write fd b off rem in
      go (off + n) (rem - n)
    end
  in
  go 0 (Bytes.length b)

(** Patch [path] in place so its bytes become [target], writing only
    between the first and last differing byte. Returns the byte range
    written as [(offset, length)] — the repair-I/O bound. Not atomic: a
    crash mid-patch leaves a CRC-failing frame that the next pass
    quarantines and repairs again. *)
let patch_file ~fsync path ~current ~target =
  let cl = String.length current and tl = String.length target in
  let maxp = min cl tl in
  let p = ref 0 in
  while !p < maxp && current.[!p] = target.[!p] do incr p done;
  let prefix = !p in
  Rjournal.mkdirs (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let range =
        if cl = tl then begin
          (* equal length: share the common suffix too, patch the middle *)
          let s = ref 0 in
          while
            !s < tl - prefix && current.[cl - 1 - !s] = target.[tl - 1 - !s]
          do
            incr s
          done;
          let len = tl - !s - prefix in
          if len > 0 then begin
            ignore (Unix.lseek fd prefix Unix.SEEK_SET);
            write_all fd (Bytes.of_string (String.sub target prefix len))
          end;
          (prefix, len)
        end
        else begin
          (* length changed: rewrite from the first divergence, truncate *)
          ignore (Unix.lseek fd prefix Unix.SEEK_SET);
          write_all fd (Bytes.of_string (String.sub target prefix (tl - prefix)));
          Unix.ftruncate fd tl;
          (prefix, tl - prefix)
        end
      in
      if fsync then Unix.fsync fd;
      range)

type file_repair = {
  f_repaired : int;
  f_recreated : int;
  f_quarantined : int;
  f_torn_bytes : int;
  f_healed : int;
  f_patched_frames : int;
  f_repair_bytes : int;
  f_max_epoch : int;
}

(** Repair one logical file (e.g. ["journal"]) across the replica
    directories at frame granularity. Each replica's surviving records
    form a subsequence of the merged stream (the {!Rjournal} merge
    guarantee), so a greedy walk aligns every replica's frames against
    the merged order; each replica's target image keeps its own frame
    bytes wherever it holds the record and splices a sibling's frame (or
    a re-framed payload) only where it lost one. Donor frames stamped
    below the running epoch of the target are re-framed at the running
    epoch, so splicing never manufactures an epoch regression. *)
let repair_file ~fsync dirs name =
  let infos =
    List.map
      (fun d ->
        let path = Filename.concat d name in
        (path, Sys.file_exists path, Journal.scan path))
      dirs
  in
  let merged =
    Rjournal.merge_records (List.map (fun (_, _, sc) -> sc.Journal.records) infos)
  in
  let marr = Array.of_list merged in
  let n = Array.length marr in
  (* greedy subsequence embedding: own.(k) = this replica's frame bytes
     and epoch for merged record k, if the replica holds it *)
  let embeddings =
    List.map
      (fun (_, _, (sc : Journal.scan)) ->
        let recs = Array.of_list sc.Journal.records in
        let frs = Array.of_list sc.Journal.frames in
        let eps = Array.of_list sc.Journal.epochs in
        let own = Array.make (max n 1) None in
        let i = ref 0 in
        for k = 0 to n - 1 do
          if !i < Array.length recs && recs.(!i) = marr.(k) then begin
            own.(k) <- Some (frs.(!i), eps.(!i));
            incr i
          end
        done;
        own)
      infos
  in
  let donor k = List.find_map (fun own -> own.(k)) embeddings in
  (* byte-exact target image for one replica, plus each target frame's
     [start, stop) offsets for the patched-frame count *)
  let target_of own =
    let running = ref 0 in
    let buf = Buffer.create 4096 in
    let spans = ref [] in
    for k = 0 to n - 1 do
      let fr, ep =
        match own.(k) with
        | Some fe -> fe
        | None -> (
          match donor k with
          | Some fe -> fe
          | None -> (Journal.frame_epoch ~epoch:!running marr.(k), !running))
      in
      let fr, ep =
        if ep < !running then (Journal.frame_epoch ~epoch:!running marr.(k), !running)
        else (fr, ep)
      in
      running := max !running ep;
      let start = Buffer.length buf in
      Buffer.add_string buf fr;
      spans := (start, Buffer.length buf) :: !spans
    done;
    (Buffer.contents buf, List.rev !spans)
  in
  let zero =
    {
      f_repaired = 0;
      f_recreated = 0;
      f_quarantined = 0;
      f_torn_bytes = 0;
      f_healed = 0;
      f_patched_frames = 0;
      f_repair_bytes = 0;
      f_max_epoch =
        List.fold_left
          (fun a (_, _, (sc : Journal.scan)) -> max a sc.Journal.max_epoch)
          0 infos;
    }
  in
  List.fold_left2
    (fun acc (path, present, (sc : Journal.scan)) own ->
      if sc.Journal.damage <> [] then Journal.quarantine_damage path sc.Journal.damage;
      let torn_bytes =
        List.fold_left
          (fun a -> function
            | Journal.Torn_tail { raw; _ } -> a + String.length raw
            | Journal.Corrupt _ -> a)
          0 sc.Journal.damage
      in
      let corrupt =
        List.length
          (List.filter
             (function Journal.Corrupt _ -> true | Journal.Torn_tail _ -> false)
             sc.Journal.damage)
      in
      let target, spans = target_of own in
      let current = if present then read_file path else "" in
      (* an absent file with nothing to hold is a fresh open, not a lost
         replica — creating it would make every first open look like a
         repair *)
      let wrote =
        if current = target || ((not present) && target = "") then None
        else Some (patch_file ~fsync path ~current ~target)
      in
      let patched_frames =
        match wrote with
        | None | Some (_, 0) -> 0
        | Some (off, len) ->
          let stop = off + len in
          List.length
            (List.filter (fun (s, e) -> s < stop && e > off) spans)
      in
      {
        acc with
        f_repaired = (acc.f_repaired + if wrote <> None && present then 1 else 0);
        f_recreated = (acc.f_recreated + if wrote <> None && not present then 1 else 0);
        f_quarantined = acc.f_quarantined + corrupt;
        f_torn_bytes = acc.f_torn_bytes + torn_bytes;
        f_healed = acc.f_healed + (n - List.length sc.Journal.records);
        f_patched_frames = acc.f_patched_frames + patched_frames;
        f_repair_bytes =
          (acc.f_repair_bytes + match wrote with None -> 0 | Some (_, len) -> len);
      })
    zero infos embeddings

(** Scrub one home given its replica directories. Safe only when no
    live writer holds the journals open (a live {!Home} scrubs itself
    via {!Home.scrub}, which parks its writers around this). [~files]
    selects the journal-framed surface — home journals by default, the
    verdict cache's [cache.snapshot]/[cache.journal] for cache dirs. *)
let scrub_home ?(fsync = true) ?(files = default_files) dirs =
  if dirs = [] then invalid_arg "Scrub.scrub_home: no replica dirs";
  let digests = List.map (dir_digest ~files) dirs in
  let scans =
    List.concat_map
      (fun d -> List.map (fun f -> Journal.scan (Filename.concat d f)) files)
      dirs
  in
  let damage = List.exists (fun sc -> sc.Journal.damage <> []) scans in
  let converged_before =
    match digests with [] -> true | d :: ds -> List.for_all (( = ) d) ds
  in
  (* converged + undamaged means read-repair would write nothing: a
     replica missing a file that holds records anywhere diverges the
     digests, and a file absent everywhere (e.g. no snapshot before the
     first compaction) needs no repair — counting it "missing" would
     leave such homes permanently unhealthy and break idempotence *)
  let healthy = converged_before && not damage in
  if healthy then
    {
      dirs;
      healthy = true;
      converged = true;
      digest = (match digests with d :: _ -> d | [] -> "");
      repaired_replicas = 0;
      recreated_replicas = 0;
      frames_quarantined = 0;
      torn_bytes = 0;
      records_healed = 0;
      patched_frames = 0;
      repair_bytes = 0;
      epoch =
        List.fold_left (fun a (sc : Journal.scan) -> max a sc.Journal.max_epoch) 0 scans;
    }
  else begin
    let repairs = List.map (repair_file ~fsync dirs) files in
    let sum f = List.fold_left (fun a r -> a + f r) 0 repairs in
    let digests = List.map (dir_digest ~files) dirs in
    let converged =
      match digests with [] -> true | d :: ds -> List.for_all (( = ) d) ds
    in
    {
      dirs;
      healthy = false;
      converged;
      digest = (match digests with d :: _ -> d | [] -> "");
      repaired_replicas = sum (fun r -> r.f_repaired);
      recreated_replicas = sum (fun r -> r.f_recreated);
      frames_quarantined = sum (fun r -> r.f_quarantined);
      torn_bytes = sum (fun r -> r.f_torn_bytes);
      records_healed = sum (fun r -> r.f_healed);
      patched_frames = sum (fun r -> r.f_patched_frames);
      repair_bytes = sum (fun r -> r.f_repair_bytes);
      epoch = List.fold_left (fun a r -> max a r.f_max_epoch) 0 repairs;
    }
  end

(* -- fleet-level counters ------------------------------------------------------ *)

type counters = {
  homes : int;
  healthy : int;
  repaired_homes : int;  (** homes where read-repair wrote anything *)
  repaired_replicas : int;
  recreated_replicas : int;
  frames_quarantined : int;
  torn_bytes : int;
  records_healed : int;
  patched_frames : int;
  repair_bytes : int;
  unconverged : int;  (** homes still diverged after repair — must be 0 *)
}

let zero =
  {
    homes = 0;
    healthy = 0;
    repaired_homes = 0;
    repaired_replicas = 0;
    recreated_replicas = 0;
    frames_quarantined = 0;
    torn_bytes = 0;
    records_healed = 0;
    patched_frames = 0;
    repair_bytes = 0;
    unconverged = 0;
  }

let add c (r : home_report) =
  {
    homes = c.homes + 1;
    healthy = (c.healthy + if r.healthy then 1 else 0);
    repaired_homes =
      (c.repaired_homes
      + if r.repaired_replicas > 0 || r.recreated_replicas > 0 then 1 else 0);
    repaired_replicas = c.repaired_replicas + r.repaired_replicas;
    recreated_replicas = c.recreated_replicas + r.recreated_replicas;
    frames_quarantined = c.frames_quarantined + r.frames_quarantined;
    torn_bytes = c.torn_bytes + r.torn_bytes;
    records_healed = c.records_healed + r.records_healed;
    patched_frames = c.patched_frames + r.patched_frames;
    repair_bytes = c.repair_bytes + r.repair_bytes;
    unconverged = (c.unconverged + if r.converged then 0 else 1);
  }

let counters_text c =
  Printf.sprintf
    "homes=%d healthy=%d repaired-homes=%d repaired-replicas=%d \
     recreated-replicas=%d quarantined-frames=%d torn-bytes=%d healed-records=%d \
     patched-frames=%d repair-bytes=%d unconverged=%d"
    c.homes c.healthy c.repaired_homes c.repaired_replicas c.recreated_replicas
    c.frames_quarantined c.torn_bytes c.records_healed c.patched_frames
    c.repair_bytes c.unconverged
