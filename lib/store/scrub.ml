(** Anti-entropy scrub over the replica set of a durable surface.

    A scrub pass CRC-scans every replica of each of the surface's files,
    compares the replicas' {e record-stream digests} (replay is
    deterministic — the replay-determinism property suite pins this —
    so byte-identical record streams imply byte-identical
    {!Home.state_digest}s without paying a detection pass per replica),
    and when anything is missing, damaged or diverged repairs at {e
    frame granularity}: the merged record stream is aligned against each
    replica's surviving frames, a byte-exact target image is built that
    keeps every frame the replica already holds and splices donor frames
    only where records are missing, and the replica file is patched in
    place between the first and last differing byte. Repair I/O is
    bounded by the damage ([repair_bytes], [patched_frames]), not by the
    file size — a single flipped byte costs a single-byte write. A
    healthy surface is untouched — a second pass over a repaired fleet
    reports all-healthy and writes nothing.

    The in-place patch is not atomic: a crash mid-patch leaves a frame
    whose CRC fails, which the next scrub quarantines and re-repairs
    from the surviving replicas — convergence is reached by retry, never
    lost. {!Surface.scrub} is the one caller: it names the files and
    parks a live writer around the pass, so home journals and the
    verdict cache converge under the same contract and counters. *)

(* -- reading a replica set ------------------------------------------------------ *)

(* Shortest common supersequence of two lists, via the LCS backtrack:
   both are subsequences of one true history, so their SCS is the
   minimal stream containing every record either replica kept, in a
   consistent order.

   The backtrack emits equal heads first, and the table over two
   suffixes depends only on those suffixes, so the common prefix is
   emitted without a table and the table spans only the diverged
   remainder. Identical replicas, or one that is only some frames
   ahead, merge in one linear pass that returns the longer list
   itself. *)
let scs (a : string list) (b : string list) =
  let rec common p x y =
    match (x, y) with
    | [], _ -> b
    | _, [] -> a
    | u :: x', v :: y' when String.equal u v -> common (p + 1) x' y'
    | _ -> diverged p x y
  and diverged p x y =
    let xa = Array.of_list x and xb = Array.of_list y in
    let n = Array.length xa and m = Array.length xb in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if String.equal xa.(i) xb.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let out = ref (List.rev (List.filteri (fun k _ -> k < p) a)) in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      if String.equal xa.(!i) xb.(!j) then begin
        out := xa.(!i) :: !out;
        incr i;
        incr j
      end
      else if lcs.(!i + 1).(!j) >= lcs.(!i).(!j + 1) then begin
        out := xa.(!i) :: !out;
        incr i
      end
      else begin
        out := xb.(!j) :: !out;
        incr j
      end
    done;
    while !i < n do
      out := xa.(!i) :: !out;
      incr i
    done;
    while !j < m do
      out := xb.(!j) :: !out;
      incr j
    done;
    List.rev !out
  in
  common 0 a b

let merge_records = function
  | [] -> []
  | first :: rest -> List.fold_left scs first rest

type replica_scan = {
  r_path : string;
  r_present : bool;  (** the file existed when it was read *)
  r_image : string;  (** the replica's bytes as read *)
  r_scan : Journal.scan;
}

(* Replicas of a healthy journal are byte-identical, and
   [Journal.scan_string] is a pure function of the bytes, so an image
   equal to one already scanned reuses that scan: a replica set costs
   one read per replica and one scan per distinct image. *)
let scan_replicas paths =
  let rec go seen = function
    | [] -> []
    | path :: rest ->
      let present = Sys.file_exists path in
      let image = Journal.read_file path in
      let scan =
        match List.find_opt (fun (img, _) -> String.equal img image) seen with
        | Some (_, sc) -> sc
        | None -> Journal.scan_string image
      in
      { r_path = path; r_present = present; r_image = image; r_scan = scan }
      :: go ((image, scan) :: seen) rest
  in
  go [] paths

type settled = { write : bool; torn : int; corrupt : int; healed : int }

(* An absent file with nothing to hold is a fresh open, not a lost
   replica, and is never written: creating it would make every first
   open look like a repair. *)
let settle ~merged ~stale r =
  let sc = r.r_scan in
  if sc.Journal.damage <> [] then Journal.quarantine_damage r.r_path sc.Journal.damage;
  let torn, corrupt =
    List.fold_left
      (fun (t, c) -> function
        | Journal.Torn_tail { raw; _ } -> (t + String.length raw, c)
        | Journal.Corrupt _ -> (t, c + 1))
      (0, 0) sc.Journal.damage
  in
  {
    write = stale && (r.r_present || merged > 0);
    torn;
    corrupt;
    healed = merged - List.length sc.Journal.records;
  }

(* Record-stream digest of one replica directory, from its per-file
   scans in file order: the digest of every valid record of every
   file. Missing files scan as empty streams, so a destroyed replica
   simply disagrees with its healthy siblings. *)
let digest_of scans =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      List.iter
        (fun r ->
          Buffer.add_string b (string_of_int (String.length r));
          Buffer.add_char b ':';
          Buffer.add_string b r)
        r.r_scan.Journal.records;
      Buffer.add_char b '|')
    scans;
  Digest.to_hex (Digest.string (Buffer.contents b))

type home_report = {
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
  Journal.mkdirs (Filename.dirname path);
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
            Journal.write_sub fd target prefix len
          end;
          (prefix, len)
        end
        else begin
          (* length changed: rewrite from the first divergence, truncate *)
          ignore (Unix.lseek fd prefix Unix.SEEK_SET);
          Journal.write_sub fd target prefix (tl - prefix);
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
}

(** Repair one logical file (e.g. a home's journal) across the replica
    directories at frame granularity, given its replica scans. Each
    replica's surviving records form a subsequence of the merged stream
    (the {!merge_records} guarantee), so a greedy walk aligns every
    replica's frames against the merged order; each replica's target
    image keeps its own frame bytes wherever it holds the record and
    splices a sibling's frame (or a re-framed payload) only where it
    lost one. Donor frames stamped below the running epoch of the target
    are re-framed at the running epoch, so splicing never manufactures
    an epoch regression. *)
let repair_file ~fsync infos =
  let merged = merge_records (List.map (fun r -> r.r_scan.Journal.records) infos) in
  let marr = Array.of_list merged in
  let n = Array.length marr in
  (* greedy subsequence embedding: own.(k) = this replica's frame (as a
     span of its image) and epoch for merged record k, if it holds it *)
  let embeddings =
    List.map
      (fun { r_image = image; r_scan = sc; _ } ->
        let recs = Array.of_list sc.Journal.records in
        let spans = Array.of_list sc.Journal.spans in
        let eps = Array.of_list sc.Journal.epochs in
        let own = Array.make (max n 1) None in
        let i = ref 0 in
        for k = 0 to n - 1 do
          if !i < Array.length recs && String.equal recs.(!i) marr.(k) then begin
            let off, len = spans.(!i) in
            own.(k) <- Some (image, off, len, eps.(!i));
            incr i
          end
        done;
        own)
      infos
  in
  let donor k = List.find_map (fun own -> own.(k)) embeddings in
  let reframed k epoch =
    let fr = Journal.frame_epoch ~epoch marr.(k) in
    (fr, 0, String.length fr, epoch)
  in
  (* byte-exact target image for one replica, plus each target frame's
     [start, stop) offsets for the patched-frame count *)
  let target_of own =
    let running = ref 0 in
    let buf = Buffer.create 4096 in
    let spans = ref [] in
    for k = 0 to n - 1 do
      let ((_, _, _, ep) as fr) =
        match own.(k) with
        | Some fr -> fr
        | None -> (
          match donor k with Some fr -> fr | None -> reframed k !running)
      in
      let src, off, len, ep = if ep < !running then reframed k !running else fr in
      running := max !running ep;
      let start = Buffer.length buf in
      Buffer.add_substring buf src off len;
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
    }
  in
  List.fold_left2
    (fun acc ({ r_present = present; r_image = current; _ } as r) own ->
      let target, spans = target_of own in
      let s = settle ~merged:n ~stale:(not (String.equal current target)) r in
      let wrote =
        if s.write then Some (patch_file ~fsync r.r_path ~current ~target) else None
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
        f_repaired = (acc.f_repaired + if s.write && present then 1 else 0);
        f_recreated = (acc.f_recreated + if s.write && not present then 1 else 0);
        f_quarantined = acc.f_quarantined + s.corrupt;
        f_torn_bytes = acc.f_torn_bytes + s.torn;
        f_healed = acc.f_healed + s.healed;
        f_patched_frames = acc.f_patched_frames + patched_frames;
        f_repair_bytes =
          (acc.f_repair_bytes + match wrote with None -> 0 | Some (_, len) -> len);
      })
    zero infos embeddings

(* Per-replica digests of a file-major scan table: replica [i]'s scans
   are the [i]th of every row. *)
let digests by_file =
  match by_file with
  | [] -> []
  | row :: _ ->
    List.mapi (fun i _ -> digest_of (List.map (fun row -> List.nth row i) by_file)) row

let all_equal = function [] -> true | d :: ds -> List.for_all (String.equal d) ds

(** Scrub one surface: [files] holds, per logical file in replay order,
    its path in every replica directory (primary first). Safe only when
    no live writer holds the files open. Every replica file is read and
    scanned once up front (each distinct image once); repair works from
    those scans. *)
let run ?(fsync = true) files =
  let scan_all () = List.map scan_replicas files in
  let by_file = scan_all () in
  let digests_before = digests by_file in
  let damage =
    List.exists
      (List.exists (fun r -> r.r_scan.Journal.damage <> []))
      by_file
  in
  (* converged + undamaged means read-repair would write nothing: a
     replica missing a file that holds records anywhere diverges the
     digests, and a file absent everywhere (e.g. no snapshot before the
     first compaction) needs no repair — counting it "missing" would
     leave such homes permanently unhealthy and break idempotence *)
  let healthy = all_equal digests_before && not damage in
  let repairs = if healthy then [] else List.map (repair_file ~fsync) by_file in
  let sum f = List.fold_left (fun a r -> a + f r) 0 repairs in
  let digests = if healthy then digests_before else digests (scan_all ()) in
  {
    healthy;
    converged = all_equal digests;
    digest = (match digests with d :: _ -> d | [] -> "");
    repaired_replicas = sum (fun r -> r.f_repaired);
    recreated_replicas = sum (fun r -> r.f_recreated);
    frames_quarantined = sum (fun r -> r.f_quarantined);
    torn_bytes = sum (fun r -> r.f_torn_bytes);
    records_healed = sum (fun r -> r.f_healed);
    patched_frames = sum (fun r -> r.f_patched_frames);
    repair_bytes = sum (fun r -> r.f_repair_bytes);
    epoch =
      List.fold_left
        (List.fold_left (fun a r -> max a r.r_scan.Journal.max_epoch))
        0 by_file;
  }

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

let report_text r =
  Printf.sprintf
    "converged=%b repaired=%d recreated=%d quarantined=%d healed=%d \
     patched-frames=%d repair-bytes=%d"
    r.converged r.repaired_replicas r.recreated_replicas r.frames_quarantined
    r.records_healed r.patched_frames r.repair_bytes

let counters_text c =
  Printf.sprintf
    "homes=%d healthy=%d repaired-homes=%d repaired-replicas=%d \
     recreated-replicas=%d quarantined-frames=%d torn-bytes=%d healed-records=%d \
     patched-frames=%d repair-bytes=%d unconverged=%d"
    c.homes c.healthy c.repaired_homes c.repaired_replicas c.recreated_replicas
    c.frames_quarantined c.torn_bytes c.records_healed c.patched_frames
    c.repair_bytes c.unconverged
