(** Differential tests of replicated recovery. {!Scrub.merge_records}
    against the full-table shortest-common-supersequence fold it
    replaced, on generated replica sets (identical, truncated, with lost
    interior frames, duplicate payloads, damage on several replicas,
    three replicas, empty and missing replicas), plus an allocation
    guard for the identical-replica case. Then {!Surface.recover} and
    {!Surface.scrub}, which scan each distinct replica image once,
    against references that read and scan every replica separately, on
    generated replica files: the reports and every file left on disk,
    sidecars included, must match. Last, recovery and scrub agree: a
    scrub right after recovery finds the replica set healthy and writes
    nothing. *)

module Journal = Homeguard_store.Journal
module Scrub = Homeguard_store.Scrub
module Surface = Homeguard_store.Surface

let test name f = Alcotest.test_case name `Quick f

(* The reference: the LCS table over the whole of both lists, then the
   backtrack (equal heads first, ties toward [a]). *)
let reference_scs (a : string list) (b : string list) =
  match (a, b) with
  | [], ys -> ys
  | xs, [] -> xs
  | _ ->
    let xa = Array.of_list a and xb = Array.of_list b in
    let n = Array.length xa and m = Array.length xb in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if xa.(i) = xb.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let out = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      if xa.(!i) = xb.(!j) then begin
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

let reference_merge = function
  | [] -> []
  | first :: rest -> List.fold_left reference_scs first rest

(* -- generators ----------------------------------------------------------------- *)

(* A true append history. A small alphabet makes duplicate payloads
   common, as repeated config deliveries and re-installs are. *)
let history rs ~alphabet =
  List.init (Random.State.int rs 60) (fun _ ->
      Printf.sprintf "rec-%d" (Random.State.int rs alphabet))

let take k l = List.filteri (fun i _ -> i < k) l

(* a replica that lost its last frames (crash between replica writes) *)
let lost_tail rs h = take (Random.State.int rs (List.length h + 1)) h

(* a replica whose damaged frames were quarantined: each frame dropped
   with probability 1/[rate] *)
let lost_interior rs ~rate h = List.filter (fun _ -> Random.State.int rs rate <> 0) h

(* a replica damaged at one point: a run of frames lost there, and
   perhaps the tail too *)
let damaged rs h =
  let n = List.length h in
  let at = Random.State.int rs (n + 1) in
  let len = 1 + Random.State.int rs 4 in
  let h = List.filteri (fun i _ -> i < at || i >= at + len) h in
  if Random.State.bool rs then lost_tail rs h else h

let is_subsequence sub l =
  let rec go s l =
    match (s, l) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: l' -> if String.equal x y then go s' l' else go s l'
  in
  go sub l

let show rs = String.concat " | " (List.map (String.concat ",") rs)

let agree name replicas =
  let got = Scrub.merge_records replicas in
  let want = reference_merge replicas in
  if got <> want then
    Alcotest.failf "%s: merge differs from the reference on [%s]" name (show replicas);
  List.iter
    (fun r ->
      if not (is_subsequence r got) then
        Alcotest.failf "%s: a replica is not kept by the merge [%s]" name (show replicas))
    replicas

let cases = 400

let campaign name gen =
  test name (fun () ->
      let rs = Random.State.make [| 13; Hashtbl.hash name |] in
      for _ = 1 to cases do
        agree name (gen rs)
      done)

(* -- the differential campaigns --------------------------------------------------- *)

let identical =
  campaign "identical replicas" (fun rs ->
      let h = history rs ~alphabet:40 in
      [ h; List.map (fun s -> s ^ "") h ])

let tail =
  campaign "one replica lost its tail, either order" (fun rs ->
      let h = history rs ~alphabet:40 in
      let t = lost_tail rs h in
      if Random.State.bool rs then [ h; t ] else [ t; h ])

let interior =
  campaign "lost interior frames" (fun rs ->
      let h = history rs ~alphabet:40 in
      [ lost_interior rs ~rate:5 h; h ])

let duplicates =
  campaign "duplicate payloads on a three-letter alphabet" (fun rs ->
      let h = history rs ~alphabet:3 in
      [ lost_interior rs ~rate:3 h; lost_interior rs ~rate:3 h ])

let both_damaged =
  campaign "both replicas damaged at different points" (fun rs ->
      let h = history rs ~alphabet:(2 + Random.State.int rs 30) in
      [ damaged rs h; damaged rs h ])

let three =
  campaign "three replicas" (fun rs ->
      let h = history rs ~alphabet:(2 + Random.State.int rs 30) in
      let pick () =
        match Random.State.int rs 4 with
        | 0 -> h
        | 1 -> lost_tail rs h
        | 2 -> lost_interior rs ~rate:4 h
        | _ -> damaged rs h
      in
      [ pick (); pick (); pick () ])

let empty_or_missing =
  campaign "empty and missing replicas" (fun rs ->
      let h = history rs ~alphabet:20 in
      match Random.State.int rs 5 with
      | 0 -> []
      | 1 -> [ h; [] ]
      | 2 -> [ []; h ]
      | 3 -> [ []; damaged rs h; [] ]
      | _ -> [ [] ])

let long_divergence =
  test "a long shared prefix, then divergent remainders" (fun () ->
      let rs = Random.State.make [| 7 |] in
      for _ = 1 to 20 do
        let prefix = List.init 500 (Printf.sprintf "p%d") in
        let h = prefix @ history rs ~alphabet:10 in
        agree "long prefix" [ damaged rs h; damaged rs h ]
      done)

(* -- allocation guard -------------------------------------------------------------- *)

let identical_merge_is_linear =
  test "two identical 20,000-record replicas merge without a table" (fun () ->
      let n = 20_000 in
      let a = List.init n (Printf.sprintf "record-%06d") in
      let b = List.init n (Printf.sprintf "record-%06d") in
      let before = Gc.allocated_bytes () in
      let merged = Scrub.merge_records [ a; b ] in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "merged stream is the replica" true (merged = a);
      if allocated >= 10e6 then
        Alcotest.failf "merging identical replicas allocated %.0f bytes" allocated)

(* -- recovery and scrub against scan-every-replica references ---------------------- *)

(* The recovery reference: every replica read and scanned on its own,
   compared with polymorphic equality, merged with the full-table
   reference. *)
let reference_recover ?(fsync = true) paths =
  let scans = List.map (fun p -> (p, Sys.file_exists p, Journal.scan p)) paths in
  let merged = reference_merge (List.map (fun (_, _, sc) -> sc.Journal.records) scans) in
  let max_epoch =
    List.fold_left (fun a (_, _, (sc : Journal.scan)) -> max a sc.Journal.max_epoch) 0 scans
  in
  let damage_bytes = function
    | Journal.Torn_tail { raw; _ } | Journal.Corrupt { raw; _ } -> String.length raw
  in
  let replicas =
    List.map
      (fun (path, present, sc) ->
        let torn, corrupt =
          List.partition
            (function Journal.Torn_tail _ -> true | Journal.Corrupt _ -> false)
            sc.Journal.damage
        in
        let needs_rewrite =
          if present then sc.Journal.damage <> [] || sc.Journal.records <> merged
          else merged <> []
        in
        if sc.Journal.damage <> [] then Journal.quarantine_damage path sc.Journal.damage;
        if needs_rewrite then begin
          Journal.mkdirs (Filename.dirname path);
          Journal.write_atomic ~fsync ~epoch:max_epoch path merged
        end;
        {
          Surface.path;
          present;
          records = List.length sc.Journal.records;
          torn_bytes = List.fold_left (fun a d -> a + damage_bytes d) 0 torn;
          quarantined = List.length corrupt;
          damage_index = sc.Journal.first_damage_index;
          repaired = needs_rewrite;
        })
      scans
  in
  let hurt (r : Surface.replica_report) = r.torn_bytes > 0 || r.quarantined > 0 in
  let merged_len = List.length merged in
  {
    Surface.recovered = merged;
    replicas;
    torn_bytes =
      List.fold_left (fun a (r : Surface.replica_report) -> a + r.torn_bytes) 0 replicas;
    quarantined =
      List.fold_left (fun a (r : Surface.replica_report) -> a + r.quarantined) 0 replicas;
    damage_index =
      List.fold_left
        (fun acc (r : Surface.replica_report) ->
          match (acc, r.damage_index) with
          | None, d | d, None -> d
          | Some a, Some b -> Some (min a b))
        None replicas;
    max_epoch;
    diverged = List.exists (fun (_, _, sc) -> sc.Journal.records <> merged) scans;
    healed =
      List.fold_left
        (fun a (r : Surface.replica_report) -> a + (merged_len - r.records))
        0 replicas;
    all_replicas_damaged =
      List.exists hurt replicas
      && List.for_all (fun (r : Surface.replica_report) -> hurt r || not r.present) replicas;
  }

(* The scrub reference: every file of every replica read and scanned
   again for the digests, the damage check and each file's repair, and
   the patch computed as before. *)
let reference_dir_digest files dir =
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          Buffer.add_string b (string_of_int (String.length r));
          Buffer.add_char b ':';
          Buffer.add_string b r)
        (Journal.scan (Filename.concat dir name)).Journal.records;
      Buffer.add_char b '|')
    files;
  Digest.to_hex (Digest.string (Buffer.contents b))

let reference_patch path ~current ~target =
  let cl = String.length current and tl = String.length target in
  let p = ref 0 in
  while !p < min cl tl && current.[!p] = target.[!p] do incr p done;
  let prefix = !p in
  Journal.mkdirs (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      if cl = tl then begin
        let s = ref 0 in
        while !s < tl - prefix && current.[cl - 1 - !s] = target.[tl - 1 - !s] do incr s done;
        let len = tl - !s - prefix in
        if len > 0 then begin
          ignore (Unix.lseek fd prefix Unix.SEEK_SET);
          Journal.write_sub fd target prefix len
        end;
        (prefix, len)
      end
      else begin
        ignore (Unix.lseek fd prefix Unix.SEEK_SET);
        Journal.write_sub fd target prefix (tl - prefix);
        Unix.ftruncate fd tl;
        (prefix, tl - prefix)
      end)

(* (repaired, recreated, quarantined, torn bytes, healed, patched
   frames, repair bytes, max epoch) of one file across [dirs] *)
let reference_repair_file dirs name =
  let infos =
    List.map
      (fun d ->
        let path = Filename.concat d name in
        let image = Journal.read_file path in
        let sc = Journal.scan path in
        let frames = List.map (fun (o, l) -> String.sub image o l) sc.Journal.spans in
        (path, Sys.file_exists path, sc, frames))
      dirs
  in
  let marr =
    Array.of_list (reference_merge (List.map (fun (_, _, sc, _) -> sc.Journal.records) infos))
  in
  let n = Array.length marr in
  let embeddings =
    List.map
      (fun (_, _, (sc : Journal.scan), frames) ->
        let recs = Array.of_list sc.Journal.records in
        let frs = Array.of_list frames and eps = Array.of_list sc.Journal.epochs in
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
  let target_of own =
    let running = ref 0 and buf = Buffer.create 4096 and spans = ref [] in
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
    (Buffer.contents buf, !spans)
  in
  let max_epoch =
    List.fold_left (fun a (_, _, (sc : Journal.scan), _) -> max a sc.Journal.max_epoch) 0 infos
  in
  List.fold_left2
    (fun (rep, rec_, q, torn, healed, pf, rb, me) (path, present, (sc : Journal.scan), _) own ->
      if sc.Journal.damage <> [] then Journal.quarantine_damage path sc.Journal.damage;
      let t =
        List.fold_left
          (fun a -> function
            | Journal.Torn_tail { raw; _ } -> a + String.length raw | Journal.Corrupt _ -> a)
          0 sc.Journal.damage
      in
      let c =
        List.length
          (List.filter (function Journal.Corrupt _ -> true | _ -> false) sc.Journal.damage)
      in
      let target, spans = target_of own in
      let current = Journal.read_file path in
      let wrote =
        if current = target || ((not present) && target = "") then None
        else Some (reference_patch path ~current ~target)
      in
      let patched =
        match wrote with
        | None | Some (_, 0) -> 0
        | Some (off, len) ->
          List.length (List.filter (fun (s, e) -> s < off + len && e > off) spans)
      in
      ( (rep + if wrote <> None && present then 1 else 0),
        (rec_ + if wrote <> None && not present then 1 else 0),
        q + c,
        torn + t,
        healed + (n - List.length sc.Journal.records),
        pf + patched,
        (rb + match wrote with None -> 0 | Some (_, len) -> len),
        me ))
    (0, 0, 0, 0, 0, 0, 0, max_epoch) infos embeddings

let reference_scrub files dirs =
  let digests = List.map (reference_dir_digest files) dirs in
  let scans =
    List.concat_map (fun d -> List.map (fun f -> Journal.scan (Filename.concat d f)) files) dirs
  in
  let all_same = function [] -> true | d :: ds -> List.for_all (( = ) d) ds in
  if all_same digests && not (List.exists (fun sc -> sc.Journal.damage <> []) scans) then
    {
      Scrub.healthy = true;
      converged = true;
      digest = List.hd digests;
      repaired_replicas = 0;
      recreated_replicas = 0;
      frames_quarantined = 0;
      torn_bytes = 0;
      records_healed = 0;
      patched_frames = 0;
      repair_bytes = 0;
      epoch = List.fold_left (fun a (sc : Journal.scan) -> max a sc.Journal.max_epoch) 0 scans;
    }
  else
    let repairs = List.map (reference_repair_file dirs) files in
    let sum f = List.fold_left (fun a r -> a + f r) 0 repairs in
    let digests = List.map (reference_dir_digest files) dirs in
    {
      Scrub.healthy = false;
      converged = all_same digests;
      digest = List.hd digests;
      repaired_replicas = sum (fun (x, _, _, _, _, _, _, _) -> x);
      recreated_replicas = sum (fun (_, x, _, _, _, _, _, _) -> x);
      frames_quarantined = sum (fun (_, _, x, _, _, _, _, _) -> x);
      torn_bytes = sum (fun (_, _, _, x, _, _, _, _) -> x);
      records_healed = sum (fun (_, _, _, _, x, _, _, _) -> x);
      patched_frames = sum (fun (_, _, _, _, _, x, _, _) -> x);
      repair_bytes = sum (fun (_, _, _, _, _, _, x, _) -> x);
      epoch = List.fold_left (fun a (_, _, _, _, _, _, _, x) -> max a x) 0 repairs;
    }

(* -- generated replica files ------------------------------------------------------- *)

(* A journal image: frames of payloads (some with bytes a frame must
   carry verbatim) at non-decreasing epochs, 0 rendering as HGJ1. *)
let image rs =
  let epoch = ref (Random.State.int rs 3) in
  let frames =
    List.init (Random.State.int rs 12) (fun i ->
        if Random.State.int rs 4 = 0 then epoch := !epoch + 1;
        let payload =
          match Random.State.int rs 4 with
          | 0 -> Printf.sprintf "rec-%d\n\nHGJ1 " i
          | 1 -> String.init (1 + Random.State.int rs 20) (fun _ -> Char.chr (Random.State.int rs 256))
          | _ -> Printf.sprintf "rec-%d" (Random.State.int rs 6)
        in
        Journal.frame_epoch ~epoch:!epoch payload)
  in
  frames

let concat = String.concat ""
let prefix rs frames =
  let k = Random.State.int rs (List.length frames + 1) in
  List.filteri (fun i _ -> i < k) frames

let torn rs frames extra =
  let fr = Journal.frame_epoch ~epoch:7 extra in
  concat frames ^ String.sub fr 0 (1 + Random.State.int rs (String.length fr - 1))

(* one byte of frame [j] (or of the whole image) flipped *)
let corrupt rs frames =
  let img = concat frames in
  if img = "" then img
  else
    let b = Bytes.of_string img in
    let at = Random.State.int rs (Bytes.length b) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 + Random.State.int rs 255)));
    Bytes.to_string b

(* A home surface's files, in replay order. *)
let home_files = [ "snapshot"; "journal" ]

(* A replica set of one file: [None] is a missing replica. *)
type kind = Identical | Ahead | Torn | Same_corrupt | Missing | Three

let kinds = [ Identical; Ahead; Torn; Same_corrupt; Missing; Three ]

let shuffle rs l =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rs, x)) l))

let replica_set rs kind =
  let frames = image rs in
  let full = concat frames in
  match kind with
  | Identical -> [ Some full; Some full ]
  | Ahead -> shuffle rs [ Some full; Some (concat (prefix rs frames)) ]
  | Torn -> shuffle rs [ Some (torn rs frames "tail"); Some full ]
  | Same_corrupt ->
    let c = corrupt rs frames in
    [ Some c; Some c ]
  | Missing -> shuffle rs [ Some full; None ]
  | Three ->
    let other =
      match Random.State.int rs 4 with
      | 0 -> Some (concat (prefix rs frames))
      | 1 -> Some (torn rs frames "t")
      | 2 -> Some (corrupt rs frames)
      | _ -> None
    in
    shuffle rs [ Some full; Some full; other ]

let kind_name = function
  | Identical -> "identical"
  | Ahead -> "ahead"
  | Torn -> "torn"
  | Same_corrupt -> "same-corrupt"
  | Missing -> "missing"
  | Three -> "three"

let scratch_root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hg-merge-%d" (Unix.getpid ()))

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat scratch_root (string_of_int !n) in
    Journal.mkdirs d;
    d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_file path contents =
  Journal.mkdirs (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Journal.write_sub fd contents 0 (String.length contents);
  Unix.close fd

(* every file under [root], as (relative path, bytes), sorted *)
let tree root =
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      List.concat_map
        (fun e -> walk (if rel = "" then e else Filename.concat rel e))
        (List.sort compare (Array.to_list (Sys.readdir abs)))
    else [ (rel, Journal.read_file abs) ]
  in
  walk ""

let relative root path =
  let n = String.length root in
  if String.length path >= n && String.sub path 0 n = root then
    String.sub path n (String.length path - n)
  else path

let recovery_view root (r : Surface.file_recovery) =
  let view (x : Surface.replica_report) = { x with path = relative root x.path } in
  { r with replicas = List.map view r.replicas }

let recover_agrees =
  test "recover matches the scan-every-replica reference" (fun () ->
      let rs = Random.State.make [| 29 |] in
      List.iter
        (fun kind ->
          for case = 1 to 60 do
            let set = replica_set rs kind in
            let a = fresh () and b = fresh () in
            let dirs root =
              List.mapi (fun i _ -> Filename.concat root (Printf.sprintf "r%d" i)) set
            in
            let paths root = List.map (fun d -> Filename.concat d "journal") (dirs root) in
            List.iter
              (fun root -> List.iter2 (fun p img -> Option.iter (write_file p) img) (paths root) set)
              [ a; b ];
            let got =
              (Surface.recover (Surface.at ~fsync:false Surface.Home (dirs a))).Surface.journal
            in
            let want = reference_recover ~fsync:false (paths b) in
            if recovery_view a got <> recovery_view b want then
              Alcotest.failf "%s case %d: recovery reports differ" (kind_name kind) case;
            if tree a <> tree b then
              Alcotest.failf "%s case %d: files on disk differ" (kind_name kind) case
          done)
        kinds;
      rm_rf scratch_root)

(* One generated replica set per file of a home surface, written alike
   under every root; each root's replica directories, primary first. *)
let home_sets rs roots =
  let kind () = List.nth kinds (Random.State.int rs (List.length kinds)) in
  let sets = List.map (fun _ -> replica_set rs (kind ())) home_files in
  let width = List.fold_left (fun a s -> max a (List.length s)) 0 sets in
  List.map
    (fun root ->
      let dirs = List.init width (fun i -> Filename.concat root (Printf.sprintf "r%d" i)) in
      List.iter Journal.mkdirs dirs;
      List.iter2
        (fun name set ->
          List.iteri
            (fun i img -> Option.iter (write_file (Filename.concat (List.nth dirs i) name)) img)
            set)
        home_files sets;
      dirs)
    roots

let scrub_agrees =
  test "scrub matches the scan-every-replica reference" (fun () ->
      let rs = Random.State.make [| 31 |] in
      for case = 1 to 200 do
        let a = fresh () and b = fresh () in
        let dirs_a, dirs_b =
          match home_sets rs [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false
        in
        let got = Surface.scrub (Surface.at ~fsync:false Surface.Home dirs_a) in
        let want = reference_scrub home_files dirs_b in
        if got <> want then
          Alcotest.failf "case %d: scrub reports differ" case;
        if tree a <> tree b then Alcotest.failf "case %d: files on disk differ" case
      done;
      rm_rf scratch_root)

(* Recovery's whole-file rewrite and scrub's in-place patch are two
   write policies over one damage tally: once recovery has run, scrub
   must find nothing left to do. *)
let recover_then_scrub_is_healthy =
  test "a scrub right after recovery is healthy and writes nothing" (fun () ->
      let rs = Random.State.make [| 37 |] in
      for case = 1 to 200 do
        let dirs = List.hd (home_sets rs [ fresh () ]) in
        let surface = Surface.at ~fsync:false Surface.Home dirs in
        ignore (Surface.recover surface);
        let r = Surface.scrub surface in
        if not (r.Scrub.healthy && r.repair_bytes = 0 && r.patched_frames = 0) then
          Alcotest.failf "case %d: scrub after recovery: %s" case (Scrub.report_text r)
      done;
      rm_rf scratch_root)

let tests =
  [
    identical;
    tail;
    interior;
    duplicates;
    both_damaged;
    three;
    empty_or_missing;
    long_divergence;
    identical_merge_is_linear;
    recover_agrees;
    scrub_agrees;
    recover_then_scrub_is_healthy;
  ]
