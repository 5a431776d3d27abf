(** Durability suite: journal framing and recovery, idempotent
    ingestion, and the crash matrix.

    Runs as its own executable (like [test/faults]) so the global
    storage-fault hook never leaks into the main suite. The acceptance
    invariant for the crash matrix: for every injected crash point,
    torn write and bit flip, recovering the journal and re-running the
    workload idempotently yields a home whose full re-audit output is
    byte-identical to the uncrashed run. *)

module Crc32 = Homeguard_store.Crc32
module Journal = Homeguard_store.Journal
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Event = Homeguard_store.Event
module Ingest = Homeguard_store.Ingest
module Home = Homeguard_store.Home
module Surface = Homeguard_store.Surface
module Synth = Homeguard_corpus.Synth
module App_entry = Homeguard_corpus.App_entry
module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Install_flow = Homeguard_frontend.Install_flow
module Policy = Homeguard_handling.Policy
module Mediator = Homeguard_handling.Mediator

let test name f = Alcotest.test_case name `Quick f
let check_bool m = Alcotest.(check bool) m
let check_int m = Alcotest.(check int) m
let check_string m = Alcotest.(check string) m

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hg_store_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_app name =
  let open Homeguard_corpus in
  let e = Option.get (Corpus.find name) in
  (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app

(* -- CRC-32 ------------------------------------------------------------------- *)

let crc_vectors =
  test "CRC-32 matches the IEEE reference vectors" (fun () ->
      check_int "empty" 0 (Crc32.string "");
      check_int "check string" 0xCBF43926 (Crc32.string "123456789");
      check_int "fox" 0x414FA339 (Crc32.string "The quick brown fox jumps over the lazy dog"))

(* The bytewise table CRC the slicing-by-8 one replaced: the reference. *)
let reference_crc s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let crc_matches_bytewise_reference =
  test "slicing CRC-32 equals the bytewise reference at every length and offset" (fun () ->
      let st = Random.State.make [| 16 |] in
      let random_string n = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
      let agree what s =
        if Crc32.string s <> reference_crc s then
          Alcotest.failf "%s: length %d differs" what (String.length s)
      in
      for n = 0 to 64 do
        agree "short" (random_string n)
      done;
      for _ = 1 to 200 do
        agree "random" (random_string (Random.State.int st 16385))
      done;
      (* every start offset within one buffer, so every alignment of the
         8-byte steps meets every tail length *)
      let buf = random_string 16500 in
      for off = 0 to 7 do
        List.iter
          (fun len ->
            let expect = reference_crc (String.sub buf off len) in
            if Crc32.substring buf off len <> expect then
              Alcotest.failf "substring at %d, length %d differs" off len)
          (List.init 65 Fun.id @ [ 127; 6200; 16384 ])
      done;
      check_bool "out-of-range substring rejected" true
        (match Crc32.substring buf 16000 501 with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* -- framing and scanning ----------------------------------------------------- *)

let payloads = [ "alpha"; "{\"k\": [1, 2]}"; String.make 300 'x'; "with\nnewlines\nand | bars" ]

let joined = String.concat "" (List.map Journal.frame payloads)

let scan_roundtrip =
  test "scan recovers every framed payload in order" (fun () ->
      let sc = Journal.scan_string joined in
      check_bool "no damage" true (sc.Journal.damage = []);
      check_bool "payloads" true (sc.Journal.records = payloads))

let scan_empty =
  test "scanning an empty or missing journal is sound" (fun () ->
      let sc = Journal.scan_string "" in
      check_bool "no records" true (sc.Journal.records = [] && sc.Journal.damage = []);
      let sc = Journal.scan "/nonexistent/journal" in
      check_bool "missing file" true (sc.Journal.records = []))

let torn_tail_every_cut =
  test "a tail torn at any byte loses only the last record" (fun () ->
      let keep = [ "one"; "two" ] in
      let prefix = String.concat "" (List.map Journal.frame keep) in
      let full = prefix ^ Journal.frame "three" in
      for cut = String.length prefix + 1 to String.length full - 1 do
        let sc = Journal.scan_string (String.sub full 0 cut) in
        if sc.Journal.records <> keep then
          Alcotest.failf "cut at %d recovered %d record(s)" cut
            (List.length sc.Journal.records);
        match sc.Journal.damage with
        | [ Journal.Torn_tail _ ] -> ()
        | _ -> Alcotest.failf "cut at %d: expected exactly a torn tail" cut
      done)

let flip_payload_quarantines =
  test "a bit flip in any payload byte quarantines only that record" (fun () ->
      let frame2 = Journal.frame "middle-record" in
      let before = Journal.frame "first" and after = Journal.frame "last" in
      let p0 = String.length before + Journal.header_len in
      for i = p0 to p0 + String.length "middle-record" - 1 do
        let b = Bytes.of_string (before ^ frame2 ^ after) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
        let sc = Journal.scan_string (Bytes.to_string b) in
        if sc.Journal.records <> [ "first"; "last" ] then
          Alcotest.failf "flip at %d: survivors wrong" i;
        if sc.Journal.first_damage_index <> Some 1 then
          Alcotest.failf "flip at %d: damage index wrong" i
      done)

let flip_length_field_resyncs =
  test "a corrupted length field mid-journal loses only that record" (fun () ->
      (* Regression: a bit flip in the length field can make a frame
         claim to extend past EOF. That must resynchronize at the next
         frame boundary — classifying it as a torn tail would silently
         truncate every valid record after it. *)
      let b = Bytes.of_string joined in
      let off = String.length (Journal.frame (List.nth payloads 0)) in
      (* force the second record's length field huge but still hex *)
      Bytes.set b (off + 5) 'f';
      let sc = Journal.scan_string (Bytes.to_string b) in
      check_bool "first survives" true (List.hd sc.Journal.records = "alpha");
      check_bool "records after the damage survive" true
        (List.mem (String.make 300 'x') sc.Journal.records);
      check_int "exactly one record lost" (List.length payloads - 1)
        (List.length sc.Journal.records);
      (match sc.Journal.damage with
      | [ Journal.Corrupt _ ] -> ()
      | _ -> Alcotest.fail "expected exactly one corrupt region, no torn tail");
      (* at EOF the same over-claiming frame is a genuine torn tail *)
      let only = Journal.frame "alpha" in
      let t = Bytes.of_string only in
      Bytes.set t 5 'f';
      match (Journal.scan_string (Bytes.to_string t)).Journal.damage with
      | [ Journal.Torn_tail _ ] -> ()
      | _ -> Alcotest.fail "final frame should still be a torn tail")

let flip_magic_resyncs =
  test "a damaged header resynchronizes at the next record" (fun () ->
      let b = Bytes.of_string joined in
      (* clobber the second record's magic *)
      let off = String.length (Journal.frame (List.nth payloads 0)) in
      Bytes.set b off 'X';
      let sc = Journal.scan_string (Bytes.to_string b) in
      check_bool "first survives" true (List.hd sc.Journal.records = "alpha");
      check_bool "later records recovered" true
        (List.mem (String.make 300 'x') sc.Journal.records);
      check_bool "damage noted" true (sc.Journal.damage <> []))

let recover_rewrites_and_quarantines =
  test "recover truncates, quarantines and leaves a clean journal" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "journal" in
      let b = Bytes.of_string (joined ^ "HGJ1 0000") in
      (* flip a payload byte of record 2 *)
      let off = String.length (Journal.frame "alpha") + Journal.header_len in
      Bytes.set b off '?';
      write_file path (Bytes.to_string b);
      let rewritten (r : Surface.file_recovery) =
        List.exists (fun (p : Surface.replica_report) -> p.repaired) r.replicas
      in
      let recover () = (Surface.recover (Surface.at Surface.Home [ dir ])).Surface.journal in
      let r = recover () in
      check_int "quarantined" 1 r.quarantined;
      check_int "torn bytes" 9 r.torn_bytes;
      check_bool "rewritten" true (rewritten r);
      check_bool "sidecar exists" true (Sys.file_exists (path ^ ".quarantine"));
      let sc = Journal.scan path in
      check_bool "clean after rewrite" true (sc.Journal.damage = []);
      check_bool "survivors" true (sc.Journal.records = r.recovered);
      (* recovering a clean journal is a no-op *)
      let r2 = recover () in
      check_bool "idempotent" true (not (rewritten r2)))

let scan_spans_are_the_frames =
  test "each valid record's span is its exact frame in the scanned bytes" (fun () ->
      let frames =
        [ Journal.frame "alpha"; Journal.frame_epoch ~epoch:3 "beta\nHGJ1 ";
          Journal.frame_epoch ~epoch:3 ""; Journal.frame_epoch ~epoch:9 (String.make 70 'z') ]
      in
      let img = "junk\n" ^ String.concat "" frames ^ String.sub (Journal.frame "torn") 0 12 in
      let sc = Journal.scan_string img in
      check_int "one span per record" (List.length sc.Journal.records)
        (List.length sc.Journal.spans);
      check_bool "spans are the frames" true
        (List.map (fun (o, l) -> String.sub img o l) sc.Journal.spans = frames);
      check_bool "epochs read in place" true (sc.Journal.epochs = [ 0; 3; 3; 9 ]);
      check_int "junk and torn tail noted" 2 (List.length sc.Journal.damage))

let append_then_scan =
  test "append/scan round-trip through the filesystem" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j" in
      let j = Journal.open_append path in
      List.iter (Journal.append j) payloads;
      Journal.close j;
      let sc = Journal.scan path in
      check_bool "all back" true (sc.Journal.records = payloads && sc.Journal.damage = []))

(* The journal's own raw-descriptor I/O: exact frame bytes on disk, the
   closed-writer contract, the torn-write fault and no leaked descriptor. *)
let appended_bytes_are_the_frame =
  test "appended frames hit the disk byte-for-byte" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j" in
      let j = Journal.open_append ~epoch:5 path in
      Journal.append j "first";
      Journal.append j (String.make 70_000 'z');
      Journal.close j;
      check_string "on-disk bytes"
        (Journal.frame_epoch ~epoch:5 "first" ^ Journal.frame_epoch ~epoch:5 (String.make 70_000 'z'))
        (read_file path);
      check_string "read_file agrees" (read_file path) (Journal.read_file path);
      check_string "a missing file reads as empty" ""
        (Journal.read_file (Filename.concat dir "absent")))

let closed_writer_contract =
  test "append after close raises and close is idempotent" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let j = Journal.open_append (Filename.concat dir "j") in
      Journal.close j;
      Journal.close j;
      check_bool "append raises Invalid_argument" true
        (match Journal.append j "late" with exception Invalid_argument _ -> true | () -> false))

let torn_append_leaves_the_prefix =
  test "a torn append leaves exactly its prefix, scanned as a torn tail" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j" in
      let j = Journal.open_append path in
      Journal.append j "kept";
      let frame = Journal.frame "lost in the tear" in
      Journal.arm_storage ~seed:1 ~rate_per_thousand:1000 ~only:"journal/write:j#2" Journal.Torn;
      let prefix =
        match Journal.on_write "journal/write:j#2" frame with `Torn p -> p | `Write _ -> ""
      in
      let crashed =
        Fun.protect
          ~finally:(fun () -> Journal.disarm_storage ())
          (fun () ->
            match Journal.append j "lost in the tear" with
            | exception Journal.Crashed _ -> true
            | () -> false)
      in
      Journal.close j;
      check_bool "crashed" true crashed;
      check_bool "the cut falls inside the frame" true (prefix <> "");
      check_string "file is the good frame plus the prefix" (Journal.frame "kept" ^ prefix)
        (read_file path);
      let sc = Journal.scan path in
      check_bool "good record kept" true (sc.Journal.records = [ "kept" ]);
      match sc.Journal.damage with
      | [ Journal.Torn_tail { offset; raw } ] ->
        check_int "tear offset" (String.length (Journal.frame "kept")) offset;
        check_string "torn bytes" prefix raw
      | _ -> Alcotest.fail "expected exactly one torn tail")

let store_io_leaks_no_descriptor =
  test "journal open/append/close, reads and rewrites leak no descriptor" (fun () ->
      let fd_dir = "/proc/self/fd" in
      if Sys.file_exists fd_dir then begin
        let open_fds () = Array.length (Sys.readdir fd_dir) in
        let dir = fresh_dir () in
        Unix.mkdir dir 0o755;
        let path = Filename.concat dir "j" in
        let before = open_fds () in
        let j = Journal.open_append path in
        Journal.append j "one";
        Journal.close j;
        ignore (Journal.scan path);
        Journal.write_atomic path [ "two" ];
        Journal.quarantine_damage path [ Journal.Corrupt { offset = 0; raw = "x" } ];
        check_int "descriptors after the cycle" before (open_fds ())
      end)

(* -- events ------------------------------------------------------------------- *)

let event_roundtrip =
  test "every event constructor round-trips through JSON" (fun () ->
      let app = corpus_app "ComfortTV" in
      let events =
        [
          Event.Install app;
          Event.Uninstall "ComfortTV";
          Event.Config { seq = Some 3; uri = "http://my.com/appname:A/x:1/" };
          Event.Config { seq = None; uri = "http://my.com/appname:A/x:2/" };
          Event.Decision { threat_id = "AR:a<->b"; decision = Policy.Allow };
          Event.Decision
            { threat_id = "GC:a->b"; decision = Policy.Block { rule = "A/A#1" } };
          Event.Decision
            { threat_id = "AR:a<->b"; decision = Policy.Prioritize { winner = "A/A#1" } };
          Event.Decision
            { threat_id = "CT:a->b"; decision = Policy.Break_chain { hop_budget = 2 } };
          Event.Decision { threat_id = "DC:a<->b"; decision = Policy.Confirm };
          Event.Watermark 42;
          Event.Quarantine { app = "PoisonApp"; reason = "3 consecutive failures" };
          Event.Unquarantine "PoisonApp";
        ]
      in
      List.iter
        (fun e ->
          if Event.of_string (Event.to_string e) <> e then
            Alcotest.failf "event round-trip failed: %s" (Event.describe e))
        events;
      match Event.of_string "{\"nonsense\": 1}" with
      | exception Event.Decode_error _ -> ()
      | _ -> Alcotest.fail "expected Decode_error")

(* Install payloads are interned per process: the same bytes decode to
   the same app, any other bytes decode afresh, and a failed decode is
   never remembered. [Event.of_json] is the uninterned reference. *)
let reference_decode p =
  match Homeguard_rules.Json.of_string p with
  | Ok j -> Event.of_json j
  | Error m -> Alcotest.failf "reference decode: %s" m

let install_app_of = function
  | Event.Install app -> app
  | e -> Alcotest.failf "expected an install, got %s" (Event.describe e)

let interned_installs_are_shared =
  test "the same install payload decodes to one shared app" (fun () ->
      let p = Event.to_string (Event.Install (corpus_app "ComfortTV")) in
      let a1 = install_app_of (Event.of_string p) in
      (* a fresh copy of the bytes, as a second home's journal read gives *)
      let a2 = install_app_of (Event.of_string (String.sub p 0 (String.length p))) in
      check_bool "physically equal" true (a1 == a2);
      check_bool "equal to the reference decode" true (Event.Install a1 = reference_decode p))

let interned_one_byte_apart =
  test "a payload one byte apart decodes to its own correct app" (fun () ->
      let p = Event.to_string (Event.Install (corpus_app "ComfortTV")) in
      let a = install_app_of (Event.of_string p) in
      let q = Bytes.of_string p in
      (* the last byte of the app's name: ComfortTV -> ComfortTW *)
      let i = String.index_from p (String.length "{\"install\":") 'V' in
      Bytes.set q i 'W';
      let q = Bytes.to_string q in
      let b = install_app_of (Event.of_string q) in
      check_bool "distinct app" true (a != b && a <> b);
      check_bool "correct app" true (Event.Install b = reference_decode q);
      check_bool "the original is still shared" true
        (install_app_of (Event.of_string p) == a))

let interned_never_caches_failures =
  test "a corrupt install payload fails on every decode and every replay" (fun () ->
      let p = Event.to_string (Event.Install (corpus_app "ComfortTV")) in
      let bad = String.sub p 0 (String.length p - 2) in
      for _ = 1 to 2 do
        check_bool "Decode_error" true
          (match Event.of_string bad with exception Event.Decode_error _ -> true | _ -> false)
      done;
      let dir = fresh_dir () in
      Journal.mkdirs dir;
      Journal.write_atomic (Filename.concat dir "journal") [ bad ];
      for _ = 1 to 2 do
        let home, r = Home.open_ ~dir () in
        Home.close home;
        check_int "skipped on this replay" 1 r.Home.skipped_events
      done)

let interned_past_the_bound =
  test "decoding past the intern table's bound stays correct" (fun () ->
      let base = corpus_app "ComfortTV" in
      let payload i =
        Event.to_string (Event.Install { base with Rule.name = Printf.sprintf "Filler%05d" i })
      in
      for i = 0 to Event.intern_bound + 10 do
        let p = payload i in
        if Event.of_string p <> reference_decode p then Alcotest.failf "payload %d" i
      done;
      let p = payload 0 in
      check_bool "an evicted payload decodes correctly" true
        (Event.of_string p = reference_decode p);
      check_bool "and is shared again" true
        (install_app_of (Event.of_string p) == install_app_of (Event.of_string p)))

(* -- ingestion ---------------------------------------------------------------- *)

(* Ingest's fixed reorder window. *)
let window = 64

let ingest_outcomes =
  test "ingest dedups, buffers out-of-order and bounds the window" (fun () ->
      let applied = ref [] in
      let t = Ingest.create (fun ~seq p -> applied := (seq, p) :: !applied) in
      check_bool "in order" true (Ingest.receive t ~seq:1 "a" = Ingest.Applied 1);
      check_bool "dup of applied" true (Ingest.receive t ~seq:1 "a" = Ingest.Duplicate);
      check_bool "gap buffers" true (Ingest.receive t ~seq:3 "c" = Ingest.Buffered);
      check_bool "dup of buffered" true (Ingest.receive t ~seq:3 "c" = Ingest.Duplicate);
      check_bool "beyond window" true
        (Ingest.receive t ~seq:(window + 2) "f" = Ingest.Overflow);
      check_bool "gap fills, run drains" true (Ingest.receive t ~seq:2 "b" = Ingest.Applied 2);
      check_int "ack" 3 (Ingest.ack t);
      check_bool "apply order" true
        (List.rev !applied = [ (1, "a"); (2, "b"); (3, "c") ]);
      Ingest.force_last t 5;
      check_bool "stale after force" true (Ingest.receive t ~seq:4 "d" = Ingest.Duplicate);
      check_bool "next applies" true (Ingest.receive t ~seq:6 "f" = Ingest.Applied 1))

let ingest_window_boundaries =
  test "reorder window edges: at the edge buffers, one past overflows" (fun () ->
      let applied = ref [] in
      let t = Ingest.create (fun ~seq p -> applied := (seq, p) :: !applied) in
      let edge = 1 + window in
      let msg = string_of_int in
      check_bool "seed" true (Ingest.receive t ~seq:1 (msg 1) = Ingest.Applied 1);
      check_int "watermark after seed" 1 (Ingest.ack t);
      (* last = 1: last + window is the buffer's last admissible slot;
         last + window + 1 is one past it *)
      check_bool "exactly at the window edge buffers" true
        (Ingest.receive t ~seq:edge (msg edge) = Ingest.Buffered);
      check_bool "one past the edge overflows" true
        (Ingest.receive t ~seq:(edge + 1) (msg (edge + 1)) = Ingest.Overflow);
      check_int "watermark unmoved by buffering and overflow" 1 (Ingest.ack t);
      check_bool "nothing applied yet" true (!applied = [ (1, msg 1) ]);
      (* filling the gap drains the run up to the edge message *)
      for seq = 2 to edge - 2 do
        check_bool (Printf.sprintf "%d fills" seq) true
          (Ingest.receive t ~seq (msg seq) = Ingest.Applied 1)
      done;
      check_bool "the last gap drains through the buffered edge" true
        (Ingest.receive t ~seq:(edge - 1) (msg (edge - 1)) = Ingest.Applied 2);
      check_int "watermark at the edge" edge (Ingest.ack t);
      (* the window slides with the watermark: one past the old edge is
         now admissible *)
      check_bool "previously overflowed seq now applies" true
        (Ingest.receive t ~seq:(edge + 1) (msg (edge + 1)) = Ingest.Applied 1);
      check_int "watermark follows" (edge + 1) (Ingest.ack t);
      check_bool "apply order" true
        (List.rev !applied = List.init (edge + 1) (fun i -> (i + 1, msg (i + 1)))))

let ingest_duplicate_after_ack =
  test "a duplicate arriving after its ack is dropped, watermark intact" (fun () ->
      let count = ref 0 in
      let t = Ingest.create (fun ~seq:_ _ -> incr count) in
      check_bool "1" true (Ingest.receive t ~seq:1 "a" = Ingest.Applied 1);
      check_bool "2" true (Ingest.receive t ~seq:2 "b" = Ingest.Applied 1);
      check_int "acked" 2 (Ingest.ack t);
      (* the sender never saw the ack and re-sends both *)
      check_bool "dup 1" true (Ingest.receive t ~seq:1 "a" = Ingest.Duplicate);
      check_bool "dup 2" true (Ingest.receive t ~seq:2 "b" = Ingest.Duplicate);
      check_int "applied exactly once each" 2 !count;
      check_int "watermark intact" 2 (Ingest.ack t);
      (* and the stream continues normally after the duplicates *)
      check_bool "3" true (Ingest.receive t ~seq:3 "c" = Ingest.Applied 1);
      check_int "watermark advances" 3 (Ingest.ack t))

(* -- the durable home ---------------------------------------------------------- *)

(** The canonical workload, written in idempotent operations so it can
    be re-run verbatim over a recovered home. Appends (in order):
    2 sequenced configs, 2 installs, 1 decision; then a compaction and
    one more unsequenced config. *)
let workload home =
  ignore (Home.deliver home ~seq:1 "http://my.com/appname:ComfortTV/threshold1:30/");
  ignore (Home.deliver home ~seq:2 "http://my.com/appname:ColdDefender/unused:1/");
  (* duplicate delivery: must change nothing *)
  ignore (Home.deliver home ~seq:1 "http://my.com/appname:ComfortTV/threshold1:30/");
  ignore (Home.install_app home (corpus_app "ComfortTV"));
  ignore (Home.install_app home (corpus_app "ColdDefender"));
  Home.set_decision home "EC:ColdDefender/ColdDefender#1->ComfortTV/ComfortTV#1"
    (Policy.Break_chain { hop_budget = 1 });
  Home.compact home;
  ignore (Home.record_uri home "http://my.com/appname:ComfortTV/threshold1:31/")

let reference_audit =
  lazy
    (let dir = fresh_dir () in
     let home, _ = Home.open_ ~dir () in
     workload home;
     let text = Home.audit_text home in
     Home.close home;
     text)

let home_persists =
  test "a reopened home re-audits byte-identically" (fun () ->
      let dir = fresh_dir () in
      let home, r0 = Home.open_ ~dir () in
      check_bool "fresh" true (r0.Home.snapshot_records = 0 && r0.Home.journal_records = 0);
      workload home;
      let before = Home.audit_text home in
      check_string "matches reference" (Lazy.force reference_audit) before;
      Home.close home;
      let home, r = Home.open_ ~dir () in
      check_int "no damage" 0 (r.Home.torn_bytes + r.Home.quarantined);
      check_bool "no skips" true (r.Home.skipped_events = 0);
      check_string "identical after reopen" before (Home.audit_text home);
      check_int "watermark" 2 (Home.last_seq home);
      (* the mediator's input (kept threats) is reconstructed too *)
      check_bool "kept threats survive reopen" true
        (Install_flow.kept_threats (Home.flow home) <> []);
      Home.close home)

(* A frame can pass its CRC and still hold a payload the event decoder
   rejects, whether the JSON itself is malformed or merely foreign. Both
   are counted as skipped; neither may escape [open_]. *)
let home_skips_undecodable_payloads =
  test "a CRC-valid frame with an undecodable payload is skipped" (fun () ->
      List.iter
        (fun payload ->
          let dir = fresh_dir () in
          Journal.mkdirs dir;
          Journal.write_atomic (Filename.concat dir "journal") [ payload ];
          let home, r = Home.open_ ~dir () in
          Home.close home;
          check_int payload 1 r.Home.skipped_events)
        [ {|{"watermark":1e}|}; {|{"watermark":{}}|} ])

let homes_from_same_bytes_agree =
  test "two homes recovered from the same journal bytes agree" (fun () ->
      let a = fresh_dir () in
      let home, _ = Home.open_ ~dir:a () in
      workload home;
      Home.close home;
      let b = fresh_dir () in
      Journal.mkdirs b;
      List.iter
        (fun f -> write_file (Filename.concat b f) (read_file (Filename.concat a f)))
        [ "snapshot"; "journal" ];
      let ha, _ = Home.open_ ~dir:a () and hb, _ = Home.open_ ~dir:b () in
      check_string "state digests" (Home.state_digest ha) (Home.state_digest hb);
      check_bool "the homes share their decoded apps" true
        (List.for_all2 ( == ) (Home.installed_apps ha) (Home.installed_apps hb));
      Home.close ha;
      Home.close hb)

let home_rerun_is_idempotent =
  test "re-running the workload over a live home changes nothing" (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~dir () in
      workload home;
      let once = Home.audit_text home in
      workload home;
      check_string "idempotent" once (Home.audit_text home);
      Home.close home)

let home_out_of_order_equals_in_order =
  test "out-of-order and duplicated deliveries converge to in-order state" (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~dir () in
      (* deliver 3,2,1 with duplicates interleaved *)
      check_bool "buffered" true
        (Home.deliver home ~seq:3 "http://my.com/appname:B/v:3/"
        = Home.Accepted Ingest.Buffered);
      ignore (Home.deliver home ~seq:2 "http://my.com/appname:A/v:2/");
      ignore (Home.deliver home ~seq:3 "http://my.com/appname:B/v:3/");
      check_bool "drains all three" true
        (Home.deliver home ~seq:1 "http://my.com/appname:A/v:1/"
        = Home.Accepted (Ingest.Applied 3));
      let ooo = Home.audit_text home in
      Home.close home;
      let dir2 = fresh_dir () in
      let home2, _ = Home.open_ ~dir:dir2 () in
      ignore (Home.deliver home2 ~seq:1 "http://my.com/appname:A/v:1/");
      ignore (Home.deliver home2 ~seq:2 "http://my.com/appname:A/v:2/");
      ignore (Home.deliver home2 ~seq:3 "http://my.com/appname:B/v:3/");
      check_string "same state" (Home.audit_text home2) ooo;
      Home.close home2)

let surfaced_corruption_counts_corrupt_only =
  test "surfaced corruption counts corrupt regions, not torn ones" (fun () ->
      let dir = fresh_dir () in
      let replica = Filename.concat dir "r1" in
      Journal.mkdirs replica;
      let region kind offset raw =
        if kind = `Torn then Journal.Torn_tail { offset; raw } else Journal.Corrupt { offset; raw }
      in
      Journal.quarantine_damage (Filename.concat dir "journal")
        [ region `Torn 0 "HGJ1 0000"; region `Corrupt 40 "kind=torn\nbytes"; region `Torn 90 "x" ];
      Journal.quarantine_damage (Filename.concat dir "snapshot")
        [ region `Corrupt 0 "## kind=torn"; region `Corrupt 7 "" ];
      Journal.quarantine_damage (Filename.concat replica "journal")
        [ region `Torn 3 "kind=corrupt"; region `Corrupt 5 "y" ];
      let regions dirs = Surface.corrupt_regions (Surface.at Surface.Home dirs) in
      check_int "primary only" 3 (List.fold_left ( + ) 0 (regions [ dir ]));
      check_int "with the replica" 4 (List.fold_left ( + ) 0 (regions [ dir; replica ])))

let home_uninstall_and_update =
  test "uninstall and rule-file updates survive reopen" (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~dir () in
      ignore (Home.install_app home (corpus_app "ComfortTV"));
      ignore (Home.install_app home (corpus_app "ColdDefender"));
      check_bool "second install dedups" true
        (Home.install_app home (corpus_app "ComfortTV") = Home.Unchanged);
      check_bool "uninstall" true (Home.uninstall home "ColdDefender");
      check_bool "gone" true (not (Home.uninstall home "ColdDefender"));
      let before = Home.audit_text home in
      check_bool "kept threats dropped" true
        (Install_flow.kept_threats (Home.flow home) = []);
      Home.close home;
      let home, _ = Home.open_ ~dir () in
      check_string "reopen" before (Home.audit_text home);
      check_bool "one app" true
        (List.map (fun (a : Rule.smartapp) -> a.Rule.name) (Home.installed_apps home)
        = [ "ComfortTV" ]);
      Home.close home)

let compaction_preserves_state =
  test "compaction truncates the journal and preserves the audit" (fun () ->
      let dir = fresh_dir () in
      let home, _ = Home.open_ ~dir () in
      workload home;
      let before = Home.audit_text home in
      let sizes () = Surface.sizes (Home.surface home) in
      check_bool "journal non-empty before" true (snd (sizes ()) > 0);
      Home.compact home;
      check_int "journal truncated" 0 (snd (sizes ()));
      check_bool "snapshot written" true (fst (sizes ()) > 0);
      check_string "audit unchanged" before (Home.audit_text home);
      Home.close home;
      let home, r = Home.open_ ~dir () in
      check_bool "replays from snapshot alone" true (r.Home.journal_records = 0);
      check_string "audit unchanged after reopen" before (Home.audit_text home);
      Home.close home)

(* -- the crash matrix ---------------------------------------------------------- *)

(** One matrix cell: arm the storage fault aimed at [only], run the
    workload in a fresh home (absorbing the injected crash), disarm,
    recover, re-run the workload idempotently, and require the final
    re-audit to be byte-identical to the uncrashed reference. *)
let crash_cell mode only =
  let dir = fresh_dir () in
  let crashed =
    Journal.arm_storage ~seed:1 ~rate_per_thousand:1000 ~only mode;
    Fun.protect
      ~finally:(fun () -> Journal.disarm_storage ())
      (fun () ->
        let home, _ = Home.open_ ~dir () in
        match workload home with
        | () ->
          Home.close home;
          false
        | exception Journal.Crashed _ -> true)
  in
  (* recover and converge *)
  let home, report = Home.open_ ~dir () in
  workload home;
  let text = Home.audit_text home in
  Home.close home;
  (crashed, report, text)

let crash_matrix_points =
  (* appends 1..5 exist before the compaction; the rename points cover
     compaction's two atomic replacements *)
  List.concat_map
    (fun point -> List.map (fun n -> (Journal.Crash, Printf.sprintf "%s:journal#%d" point n)) [ 1; 2; 3; 4; 5 ])
    [ "journal/append/enter"; "journal/append/written"; "journal/append/synced" ]
  @ [ (Journal.Crash, "journal/rename:snapshot"); (Journal.Crash, "journal/rename:journal") ]
  (* the rename-durable window: renamed but the parent dirfd not yet
     fsynced — recovery must converge from either side of the dirsync *)
  @ [
      (Journal.Crash, "journal/rename/unsynced:snapshot");
      (Journal.Crash, "journal/rename/unsynced:journal");
    ]
  @ List.map (fun n -> (Journal.Torn, Printf.sprintf "journal/write:journal#%d" n)) [ 1; 2; 3; 4; 5 ]
  @ List.map (fun n -> (Journal.Flip, Printf.sprintf "journal/write:journal#%d" n)) [ 1; 2; 3; 4; 5 ]

let mode_name = function Journal.Crash -> "crash" | Journal.Torn -> "torn" | Journal.Flip -> "flip"

let crash_matrix =
  test "every crash point recovers to the uncrashed audit" (fun () ->
      let reference = Lazy.force reference_audit in
      let fired = ref 0 in
      List.iter
        (fun (mode, only) ->
          let crashed, _report, text = crash_cell mode only in
          if crashed then incr fired;
          if text <> reference then
            Alcotest.failf "%s@%s: recovered audit differs from reference" (mode_name mode)
              only)
        crash_matrix_points;
      (* Crash and Torn cells must actually crash; Flip cells are
         silent by design *)
      let loud =
        List.length (List.filter (fun (m, _) -> m <> Journal.Flip) crash_matrix_points)
      in
      check_int "every loud fault fired" loud !fired)

let torn_write_reports_damage =
  test "a torn write surfaces as truncated bytes on recovery" (fun () ->
      let crashed, report, _ = crash_cell Journal.Torn "journal/write:journal#4" in
      check_bool "crashed" true crashed;
      check_bool "damage seen" true
        (report.Home.torn_bytes > 0 || report.Home.quarantined > 0))

let flip_marks_changed_apps =
  test "a flipped install record lands in the re-audit set" (fun () ->
      (* append #4 is the ColdDefender install *)
      let dir = fresh_dir () in
      Journal.arm_storage ~seed:1 ~rate_per_thousand:1000 ~only:"journal/write:journal#4"
        Journal.Flip;
      Fun.protect
        ~finally:(fun () -> Journal.disarm_storage ())
        (fun () ->
          let home, _ = Home.open_ ~dir () in
          ignore (Home.deliver home ~seq:1 "http://my.com/appname:ComfortTV/threshold1:30/");
          ignore (Home.deliver home ~seq:2 "http://my.com/appname:ColdDefender/unused:1/");
          ignore (Home.install_app home (corpus_app "ComfortTV"));
          ignore (Home.install_app home (corpus_app "ColdDefender"));
          Home.close home);
      let home, report = Home.open_ ~dir () in
      check_int "one record quarantined" 1 report.Home.quarantined;
      check_bool "ColdDefender lost" true
        (not (List.exists (fun (a : Rule.smartapp) -> a.Rule.name = "ColdDefender")
                (Home.installed_apps home)));
      (* converge and verify against a cleanly built twin *)
      ignore (Home.install_app home (corpus_app "ColdDefender"));
      let recovered = Home.audit_text home in
      Home.close home;
      let dir2 = fresh_dir () in
      let home2, _ = Home.open_ ~dir:dir2 () in
      ignore (Home.deliver home2 ~seq:1 "http://my.com/appname:ComfortTV/threshold1:30/");
      ignore (Home.deliver home2 ~seq:2 "http://my.com/appname:ColdDefender/unused:1/");
      ignore (Home.install_app home2 (corpus_app "ComfortTV"));
      ignore (Home.install_app home2 (corpus_app "ColdDefender"));
      check_string "converged" (Home.audit_text home2) recovered;
      Home.close home2)

(* -- replication, epoch fencing and scrub -------------------------------------- *)

let epoch_frames =
  test "epoch-stamped frames round-trip; regressions are fingerprinted" (fun () ->
      (* epoch 0 renders in the legacy HGJ1 form *)
      check_string "epoch 0 is legacy" (Journal.frame "x")
        (Journal.frame_epoch ~epoch:0 "x");
      let s =
        Journal.frame "a"
        ^ Journal.frame_epoch ~epoch:3 "b"
        ^ Journal.frame_epoch ~epoch:7 "c"
      in
      let sc = Journal.scan_string s in
      check_bool "mixed frames all recovered" true
        (sc.Journal.records = [ "a"; "b"; "c" ] && sc.Journal.damage = []);
      check_int "max epoch" 7 sc.Journal.max_epoch;
      check_int "monotone stream has no regressions" 0 sc.Journal.epoch_regressions;
      (* a frame stamped below the running maximum is the durable
         fingerprint of an accepted stale-epoch append *)
      let stale =
        Journal.frame_epoch ~epoch:5 "new-owner"
        ^ Journal.frame_epoch ~epoch:2 "zombie"
        ^ Journal.frame_epoch ~epoch:5 "new-owner-again"
      in
      let sc = Journal.scan_string stale in
      check_int "regression counted" 1 sc.Journal.epoch_regressions;
      check_int "floor survives" 5 sc.Journal.max_epoch;
      (* write_atomic re-stamps at the given epoch and scan agrees *)
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let p = Filename.concat dir "j" in
      Journal.write_atomic ~epoch:9 p [ "one"; "two" ];
      let sc = Journal.scan p in
      check_bool "payloads back" true (sc.Journal.records = [ "one"; "two" ]);
      check_int "stamped" 9 sc.Journal.max_epoch)

let rjournal_merge_repairs =
  test "merged recovery restores records surviving on any replica" (fun () ->
      let d0 = fresh_dir () and d1 = fresh_dir () in
      Unix.mkdir d0 0o755;
      Unix.mkdir d1 0o755;
      let p0 = Filename.concat d0 "journal" and p1 = Filename.concat d1 "journal" in
      let surface = Surface.at Surface.Home [ d0; d1 ] in
      Surface.open_writer surface ~epoch:4;
      let records = [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
      List.iter (Surface.append surface) records;
      Surface.close surface;
      let recover () = (Surface.recover surface).Surface.journal in
      (* destroy replica 0 entirely: everything survives on replica 1 *)
      Sys.remove p0;
      let r = recover () in
      check_bool "all records back" true (r.recovered = records);
      check_bool "loss was not honest-loss" true (not r.all_replicas_damaged);
      check_int "destroyed replica healed" 5 r.healed;
      check_int "fencing floor survives the merge" 4 r.max_epoch;
      let sc0 = Journal.scan p0 in
      check_bool "replica 0 rewritten with the merge" true
        (sc0.Journal.records = records && sc0.Journal.max_epoch = 4);
      (* corrupt one record on replica 1 only: its sibling still holds
         it, so the merge keeps all five and read-repairs replica 1 *)
      let b = Bytes.of_string (read_file p1) in
      let off = String.length (Journal.frame_epoch ~epoch:4 "r1") + Journal.header_len2 in
      Bytes.set b off '?';
      write_file p1 (Bytes.to_string b);
      let r = recover () in
      check_bool "merge keeps every record" true (r.recovered = records);
      check_int "one frame quarantined" 1 r.quarantined;
      check_bool "not honest-loss: a healthy replica survived" true
        (not r.all_replicas_damaged);
      check_bool "replica 1 sidecar written" true
        (Sys.file_exists (p1 ^ ".quarantine"));
      check_bool "replica 1 repaired" true
        ((Journal.scan p1).Journal.records = records);
      (* damage on one replica AND destruction of the other is honest
         loss: the record survived nowhere *)
      let b = Bytes.of_string (read_file p0) in
      Bytes.set b off '?';
      write_file p0 (Bytes.to_string b);
      Sys.remove p1;
      let r = recover () in
      check_int "the doubly-lost record is gone" 4 (List.length r.recovered);
      check_bool "honest loss is carved out" true r.all_replicas_damaged)

let fence_rejects_stale_appends =
  test "a stale-epoch writer is fenced off before touching the disk" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let p = Filename.concat dir "journal" in
      let before = Fence.rejections_for dir in
      ignore (Fence.acquire dir 1);
      let old_owner = Surface.at Surface.Home [ dir ] in
      Surface.open_writer ~fence_key:dir old_owner ~epoch:1;
      Surface.append old_owner "acked-before-handover";
      (* ownership moves on: a later epoch is granted for the home *)
      ignore (Fence.acquire dir 2);
      (match Surface.append old_owner "zombie-write" with
      | () -> Alcotest.fail "stale append must raise"
      | exception Fence.Stale { held; current; _ } ->
        check_int "held" 1 held;
        check_int "current" 2 current);
      Surface.close old_owner;
      check_int "rejection counted" (before + 1) (Fence.rejections_for dir);
      let sc = Journal.scan p in
      check_bool "nothing reached the disk" true
        (sc.Journal.records = [ "acked-before-handover" ]);
      (* the new owner writes through the same fence *)
      let new_owner = Surface.at Surface.Home [ dir ] in
      Surface.open_writer ~fence_key:dir new_owner ~epoch:2;
      Surface.append new_owner "after-handover";
      Surface.close new_owner;
      check_bool "new owner appends fine" true
        ((Journal.scan p).Journal.records
        = [ "acked-before-handover"; "after-handover" ]);
      (* an old grant never lowers the fence *)
      check_int "acquire keeps the maximum" 2 (Fence.acquire dir 1))

let fence_rejects_stale_compaction =
  test "a stale-epoch home's compaction is fenced off before touching the disk"
    (fun () ->
      let dir = fresh_dir () in
      let replica = Filename.concat dir "r1" in
      let old_owner, _ = Home.open_ ~replicas:[ replica ] ~epoch:1 ~dir () in
      ignore (Home.record_uri old_owner "http://my.com/appname:A/v:1/");
      let new_owner, _ = Home.open_ ~replicas:[ replica ] ~epoch:2 ~dir () in
      ignore (Home.record_uri new_owner "http://my.com/appname:B/v:2/");
      let files =
        List.concat_map
          (fun d -> List.map (Filename.concat d) [ "snapshot"; "journal" ])
          [ dir; replica ]
      in
      let bytes () = List.map (fun p -> (p, Journal.read_file p)) files in
      let before = bytes () in
      (match Home.compact old_owner with
      | () -> Alcotest.fail "a stale compaction must raise"
      | exception Fence.Stale { held; current; _ } ->
        check_int "held" 1 held;
        check_int "current" 2 current);
      check_bool "every replica's bytes unchanged" true (bytes () = before);
      Home.close old_owner;
      Home.close new_owner)

let scrub_repairs_and_audit_is_identical =
  test "scrub read-repairs a damaged replica set; audit is byte-identical"
    (fun () ->
      let dir = fresh_dir () and rdir = fresh_dir () in
      let home, _ = Home.open_ ~replicas:[ rdir ] ~dir () in
      workload home;
      let reference = Home.audit_text home in
      Home.close home;
      (* destroy the replica's snapshot and corrupt the primary journal:
         each surviving copy repairs its damaged sibling *)
      Sys.remove (Filename.concat rdir "snapshot");
      let jp = Filename.concat dir "journal" in
      let b = Bytes.of_string (read_file jp) in
      Bytes.set b (Bytes.length b - 2) '#';
      write_file jp (Bytes.to_string b);
      let scrub () = Surface.scrub (Surface.at Surface.Home [ dir; rdir ]) in
      let r = scrub () in
      check_bool "not healthy before repair" true (not r.Scrub.healthy);
      check_bool "converged after repair" true r.Scrub.converged;
      check_int "corrupt frame quarantined" 1 r.Scrub.frames_quarantined;
      check_bool "replicas repaired" true
        (r.Scrub.repaired_replicas + r.Scrub.recreated_replicas >= 2);
      check_bool "records healed across the set" true (r.Scrub.records_healed > 0);
      (* a second pass finds a healthy, converged home and rewrites
         nothing *)
      let r2 = scrub () in
      check_bool "idempotent" true (r2.Scrub.healthy && r2.Scrub.converged);
      check_string "digest stable" r.Scrub.digest r2.Scrub.digest;
      (* the repaired home re-audits byte-identically to the undamaged
         run *)
      let home, rep = Home.open_ ~replicas:[ rdir ] ~dir () in
      check_int "no residual damage" 0 (rep.Home.torn_bytes + rep.Home.quarantined);
      check_string "audit byte-identical after repair" reference
        (Home.audit_text home);
      Home.close home)

let replay_determinism_property =
  test "synth homes: live, recovered and rebalanced-in digests agree" (fun () ->
      let synth = Homeguard_corpus.Corpus.synth ~seed:11 ~n_homes:4 in
      List.iter
        (fun h ->
          let dir = fresh_dir () and rdir = fresh_dir () in
          let home, _ = Home.open_ ~replicas:[ rdir ] ~dir () in
          List.iter
            (fun (e : App_entry.t) ->
              let app =
                (Extract.extract_source ~name:e.App_entry.name e.App_entry.source)
                  .Extract.app
              in
              ignore (Home.install_app home app))
            h.Synth.apps;
          List.iteri
            (fun i uri -> ignore (Home.deliver home ~seq:(i + 1) uri))
            h.Synth.configs;
          let live = Home.state_digest home in
          Home.close home;
          (* plain recover-replay *)
          let home2, _ = Home.open_ ~replicas:[ rdir ] ~dir () in
          let replayed = Home.state_digest home2 in
          Home.close home2;
          (* rebalance-in: a fenced open at a strictly higher epoch, as
             a supervisor hands the home to a new shard *)
          let home3, rep =
            Home.open_ ~replicas:[ rdir ] ~epoch:(Fence.current dir + 5) ~dir ()
          in
          let rebalanced = Home.state_digest home3 in
          check_bool "fenced open granted a positive epoch" true (rep.Home.epoch > 0);
          Home.close home3;
          if live <> replayed then
            Alcotest.failf "home %s: recover replay diverges from live state"
              h.Synth.id;
          if live <> rebalanced then
            Alcotest.failf "home %s: rebalance-in replay diverges from live state"
              h.Synth.id)
        synth)

let replayed_install_equals_live =
  test "synth homes: replayed installs equal live propose + keep" (fun () ->
      let kept f = List.map Policy.threat_id (Install_flow.kept_threats f) in
      let names f =
        List.map (fun (a : Rule.smartapp) -> a.Rule.name) (Install_flow.installed_apps f)
      in
      let any_edges = ref false in
      List.iter
        (fun h ->
          let apps =
            List.map
              (fun (e : App_entry.t) ->
                (Extract.extract_source ~name:e.App_entry.name e.App_entry.source)
                  .Extract.app)
              h.Synth.apps
          in
          (* flow level: live propose + decide Keep vs replay *)
          let live = Install_flow.create () and replayed = Install_flow.create () in
          let reports =
            List.map
              (fun app ->
                let r = Install_flow.propose live app in
                Install_flow.decide live Install_flow.Keep;
                Install_flow.replay_install replayed app;
                r)
              apps
          in
          (* the Allowed list built straight from the live reports *)
          let reference =
            List.concat_map
              (fun (r : Install_flow.report) ->
                List.map Policy.threat_id r.Install_flow.threats)
              reports
          in
          if reference <> [] then any_edges := true;
          check_bool "kept threats" true (kept live = kept replayed);
          check_bool "live Allowed list matches its reports" true
            (kept live = reference);
          check_bool "replayed Allowed list matches the live reports" true
            (kept replayed = reference);
          check_bool "installed apps" true (names live = names replayed);
          check_bool "replay leaves no pending proposal" true
            (Install_flow.pending replayed = None);
          (* home level: a live home against its recovered replay *)
          let dir = fresh_dir () in
          let home, _ = Home.open_ ~dir () in
          List.iter (fun app -> ignore (Home.install_app home app)) apps;
          List.iteri
            (fun i uri -> ignore (Home.deliver home ~seq:(i + 1) uri))
            h.Synth.configs;
          let digest = Home.state_digest home in
          let edges = kept (Home.flow home) in
          Home.close home;
          let home2, _ = Home.open_ ~dir () in
          check_string "recovered state digest" digest (Home.state_digest home2);
          check_bool "recovered Allowed list" true
            (kept (Home.flow home2) = edges);
          check_bool "recovered home has no pending proposal" true
            (Install_flow.pending (Home.flow home2) = None);
          Home.close home2)
        (Homeguard_corpus.Corpus.synth ~seed:5 ~n_homes:6);
      check_bool "some home kept a threat edge" true !any_edges)

(* Replication is transparent and its cost is the replica writes
   alone: 6 synthetic homes (seed 23) ingested at R=1 and at R=2 reach
   the same state and audit; at R=2 every replica journal equals its
   primary byte for byte; and re-audits append to no journal at either
   R. *)
let replication_is_transparent =
  test "R=2 ingest mirrors R=1 state; replicas equal the primary; audits write nothing"
    (fun () ->
      let synth = Homeguard_corpus.Corpus.synth ~seed:23 ~n_homes:6 in
      check_int "homes" 6 (List.length synth);
      let extract (e : App_entry.t) =
        (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app
      in
      let run r =
        let root = fresh_dir () in
        let homes =
          List.map
            (fun (h : Synth.home) ->
              let dir = Filename.concat root ("h_" ^ h.Synth.id) in
              let replicas =
                List.init (r - 1) (fun k ->
                    Filename.concat root (Printf.sprintf "r%d/h_%s" (k + 1) h.Synth.id))
              in
              fst (Home.open_ ~fsync:false ~replicas ~dir ()))
            synth
        in
        List.iter2
          (fun home (h : Synth.home) ->
            List.iter (fun e -> ignore (Home.install_app home (extract e))) h.Synth.apps;
            List.iteri
              (fun i uri -> ignore (Home.deliver home ~seq:(i + 1) uri))
              h.Synth.configs)
          homes synth;
        (* each home's journals, primary first *)
        let journals home =
          List.filter Sys.file_exists
            (List.map (fun d -> Filename.concat d "journal") (Surface.dirs (Home.surface home)))
        in
        let sizes () =
          List.concat_map
            (fun home -> List.map (fun p -> (Unix.stat p).Unix.st_size) (journals home))
            homes
        in
        let ingested = sizes () in
        let texts = List.map Home.audit_text homes in
        List.iter (fun home -> ignore (Home.audit home)) homes;
        Alcotest.(check (list int))
          (Printf.sprintf "R=%d: audits leave every journal's size unchanged" r)
          ingested (sizes ());
        List.iter
          (fun home ->
            match List.map read_file (journals home) with
            | primary :: replicas ->
              List.iter (check_string "replica journal equals the primary" primary) replicas
            | [] -> Alcotest.fail "a home without a journal")
          homes;
        let digests = List.map Home.state_digest homes in
        let n_journals = List.length (List.concat_map journals homes) in
        List.iter Home.close homes;
        (digests, texts, n_journals)
      in
      let d1, t1, j1 = run 1 in
      let d2, t2, j2 = run 2 in
      check_int "journals at R=1" 6 j1;
      check_int "journals at R=2" 12 j2;
      Alcotest.(check (list string)) "state digests at R=1 and R=2" d1 d2;
      Alcotest.(check (list string)) "audit text at R=1 and R=2" t1 t2)

(* -- the checked-in corrupted fixture ------------------------------------------ *)

let fixture_recovers =
  test "the pre-baked corrupted journal recovers as documented" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "journal" in
      let fixture =
        (* dune runtest runs in the test dir; dune exec in the root *)
        List.find Sys.file_exists
          [ "fixtures/corrupted.journal"; "test/store/fixtures/corrupted.journal" ]
      in
      write_file path (read_file fixture);
      let r = (Surface.recover (Surface.at Surface.Home [ dir ])).Surface.journal in
      check_int "three records survive" 3 (List.length r.recovered);
      check_int "one quarantined" 1 r.quarantined;
      check_int "torn bytes" 17 r.torn_bytes;
      check_bool "damage index" true (r.damage_index = Some 2);
      (* the surviving records are decodable config events *)
      List.iter
        (fun p ->
          match Event.of_string p with
          | Event.Config _ -> ()
          | _ -> Alcotest.fail "expected a config event")
        r.recovered;
      (* and a Home opens over the recovered directory *)
      let home, hr = Home.open_ ~dir () in
      check_int "watermark from configs" 4 (Home.last_seq home);
      check_int "no further damage" 0 (hr.Home.torn_bytes + hr.Home.quarantined);
      Home.close home)

let () =
  Alcotest.run "homeguard-store"
    [
      ( "journal",
        [
          crc_vectors;
          crc_matches_bytewise_reference;
          scan_roundtrip;
          scan_empty;
          torn_tail_every_cut;
          flip_payload_quarantines;
          flip_length_field_resyncs;
          flip_magic_resyncs;
          recover_rewrites_and_quarantines;
          append_then_scan;
          appended_bytes_are_the_frame;
          closed_writer_contract;
          torn_append_leaves_the_prefix;
          store_io_leaks_no_descriptor;
          event_roundtrip;
          interned_installs_are_shared;
          interned_one_byte_apart;
          interned_never_caches_failures;
          interned_past_the_bound;
          scan_spans_are_the_frames;
        ] );
      ( "ingest",
        [
          ingest_outcomes;
          ingest_window_boundaries;
          ingest_duplicate_after_ack;
        ] );
      ( "home",
        [
          home_persists;
          home_skips_undecodable_payloads;
          homes_from_same_bytes_agree;
          home_rerun_is_idempotent;
          home_out_of_order_equals_in_order;
          home_uninstall_and_update;
          compaction_preserves_state;
          surfaced_corruption_counts_corrupt_only;
        ] );
      ( "crash-matrix",
        [ crash_matrix; torn_write_reports_damage; flip_marks_changed_apps ] );
      ( "replication",
        [
          epoch_frames;
          rjournal_merge_repairs;
          fence_rejects_stale_appends;
          fence_rejects_stale_compaction;
          scrub_repairs_and_audit_is_identical;
          replay_determinism_property;
          replayed_install_equals_live;
          replication_is_transparent;
        ] );
      ("merge", Test_merge.tests);
      ("pair-index", Test_index.tests);
      ("fixture", [ fixture_recovers ]);
    ]
