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
module Rjournal = Homeguard_store.Rjournal
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Event = Homeguard_store.Event
module Ingest = Homeguard_store.Ingest
module Home = Homeguard_store.Home
module Synth = Homeguard_corpus.Synth
module App_entry = Homeguard_corpus.App_entry
module Fault = Homeguard_solver.Fault
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
      let path = Filename.concat dir "j" in
      let b = Bytes.of_string (joined ^ "HGJ1 0000") in
      (* flip a payload byte of record 2 *)
      let off = String.length (Journal.frame "alpha") + Journal.header_len in
      Bytes.set b off '?';
      write_file path (Bytes.to_string b);
      let r = Journal.recover path in
      check_int "quarantined" 1 r.Journal.quarantined;
      check_int "torn bytes" 9 r.Journal.torn_bytes;
      check_bool "rewritten" true r.Journal.rewritten;
      check_bool "sidecar exists" true (Sys.file_exists (path ^ ".quarantine"));
      let sc = Journal.scan path in
      check_bool "clean after rewrite" true (sc.Journal.damage = []);
      check_bool "survivors" true (sc.Journal.records = r.Journal.recovered);
      (* recovering a clean journal is a no-op *)
      let r2 = Journal.recover path in
      check_bool "idempotent" true (not r2.Journal.rewritten))

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

(* -- ingestion ---------------------------------------------------------------- *)

let ingest_outcomes =
  test "ingest dedups, buffers out-of-order and bounds the window" (fun () ->
      let applied = ref [] in
      let t = Ingest.create ~window:4 (fun ~seq p -> applied := (seq, p) :: !applied) in
      check_bool "in order" true (Ingest.receive t ~seq:1 "a" = Ingest.Applied 1);
      check_bool "dup of applied" true (Ingest.receive t ~seq:1 "a" = Ingest.Duplicate);
      check_bool "gap buffers" true (Ingest.receive t ~seq:3 "c" = Ingest.Buffered);
      check_bool "dup of buffered" true (Ingest.receive t ~seq:3 "c" = Ingest.Duplicate);
      check_bool "beyond window" true (Ingest.receive t ~seq:6 "f" = Ingest.Overflow);
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
      let t = Ingest.create ~window:4 (fun ~seq p -> applied := (seq, p) :: !applied) in
      check_bool "seed" true (Ingest.receive t ~seq:1 "a" = Ingest.Applied 1);
      check_int "watermark after seed" 1 (Ingest.ack t);
      (* last = 1, window = 4: 5 = last + window is the buffer's last
         admissible slot; 6 = last + window + 1 is one past it *)
      check_bool "exactly at the window edge buffers" true
        (Ingest.receive t ~seq:5 "e" = Ingest.Buffered);
      check_bool "one past the edge overflows" true
        (Ingest.receive t ~seq:6 "f" = Ingest.Overflow);
      check_int "watermark unmoved by buffering and overflow" 1 (Ingest.ack t);
      check_bool "nothing applied yet" true (!applied = [ (1, "a") ]);
      (* filling the gap drains the run up to the edge message *)
      check_bool "2 fills" true (Ingest.receive t ~seq:2 "b" = Ingest.Applied 1);
      check_bool "3 fills" true (Ingest.receive t ~seq:3 "c" = Ingest.Applied 1);
      check_bool "4 drains through the buffered edge" true
        (Ingest.receive t ~seq:4 "d" = Ingest.Applied 2);
      check_int "watermark at the edge" 5 (Ingest.ack t);
      (* the window slides with the watermark: 6 is now admissible *)
      check_bool "previously overflowed seq now applies" true
        (Ingest.receive t ~seq:6 "f" = Ingest.Applied 1);
      check_int "watermark follows" 6 (Ingest.ack t);
      check_bool "apply order" true
        (List.rev !applied = [ (1, "a"); (2, "b"); (3, "c"); (4, "d"); (5, "e"); (6, "f") ]))

let ingest_duplicate_after_ack =
  test "a duplicate arriving after its ack is dropped, watermark intact" (fun () ->
      let count = ref 0 in
      let t = Ingest.create ~window:4 (fun ~seq:_ _ -> incr count) in
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

let ingest_envelope =
  test "wire envelope round-trips and rejects junk" (fun () ->
      let w = Ingest.encode ~home:"home-1" ~seq:9 "pay|load" in
      check_bool "roundtrip" true (Ingest.decode w = Some ("home-1", 9, "pay|load"));
      check_bool "junk" true (Ingest.decode "nope" = None);
      check_bool "bad seq" true (Ingest.decode "hgm1|h|zero|p" = None))

let ingest_sender_redelivery_is_harmless =
  test "sender redelivery under loss never double-applies" (fun () ->
      let messaging = Homeguard_config.Messaging.create ~seed:3 ~loss_per_thousand:300 () in
      let s = Ingest.sender messaging Homeguard_config.Messaging.Http ~home:"h" in
      let count = ref 0 in
      let t = Ingest.create (fun ~seq:_ _ -> incr count) in
      let delivered = ref 0 in
      for i = 1 to 30 do
        let seq, outcome = Ingest.post s (Printf.sprintf "msg%d" i) in
        match outcome with
        | Some _ ->
          (* the transport may have delivered earlier lost-looking
             attempts too; replay every attempt at the receiver *)
          ignore (Ingest.receive t ~seq (Printf.sprintf "msg%d" i));
          ignore (Ingest.receive t ~seq (Printf.sprintf "msg%d" i));
          incr delivered
        | None -> ()
      done;
      check_bool "some delivered" true (!delivered > 0);
      check_int "each applied exactly once" !delivered !count)

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
      let _mediator = Home.mediator home in
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
          Rjournal.mkdirs dir;
          Journal.write_atomic (Filename.concat dir "journal") [ payload ];
          let home, r = Home.open_ ~dir () in
          Home.close home;
          check_int payload 1 r.Home.skipped_events)
        [ {|{"watermark":1e}|}; {|{"watermark":{}}|} ])

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
      let jsize = Home.journal_size home in
      check_bool "journal non-empty before" true (jsize > 0);
      Home.compact home;
      check_int "journal truncated" 0 (Home.journal_size home);
      check_bool "snapshot written" true (Home.snapshot_size home > 0);
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
    Fault.arm_storage ~seed:1 ~rate_per_thousand:1000 ~only mode;
    Fun.protect
      ~finally:(fun () -> Fault.disarm_storage ())
      (fun () ->
        let home, _ = Home.open_ ~dir () in
        match workload home with
        | () ->
          Home.close home;
          false
        | exception Fault.Crashed _ -> true)
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
    (fun point -> List.map (fun n -> (Fault.Crash, Printf.sprintf "%s:journal#%d" point n)) [ 1; 2; 3; 4; 5 ])
    [ "journal/append/enter"; "journal/append/written"; "journal/append/synced" ]
  @ [ (Fault.Crash, "journal/rename:snapshot"); (Fault.Crash, "journal/rename:journal") ]
  (* the rename-durable window: renamed but the parent dirfd not yet
     fsynced — recovery must converge from either side of the dirsync *)
  @ [
      (Fault.Crash, "journal/rename/unsynced:snapshot");
      (Fault.Crash, "journal/rename/unsynced:journal");
    ]
  @ List.map (fun n -> (Fault.Torn, Printf.sprintf "journal/write:journal#%d" n)) [ 1; 2; 3; 4; 5 ]
  @ List.map (fun n -> (Fault.Flip, Printf.sprintf "journal/write:journal#%d" n)) [ 1; 2; 3; 4; 5 ]

let mode_name = function Fault.Crash -> "crash" | Fault.Torn -> "torn" | Fault.Flip -> "flip"

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
        List.length (List.filter (fun (m, _) -> m <> Fault.Flip) crash_matrix_points)
      in
      check_int "every loud fault fired" loud !fired)

let torn_write_reports_damage =
  test "a torn write surfaces as truncated bytes on recovery" (fun () ->
      let crashed, report, _ = crash_cell Fault.Torn "journal/write:journal#4" in
      check_bool "crashed" true crashed;
      check_bool "damage seen" true
        (report.Home.torn_bytes > 0 || report.Home.quarantined > 0))

let flip_marks_changed_apps =
  test "a flipped install record lands in the re-audit set" (fun () ->
      (* append #4 is the ColdDefender install *)
      let dir = fresh_dir () in
      Fault.arm_storage ~seed:1 ~rate_per_thousand:1000 ~only:"journal/write:journal#4"
        Fault.Flip;
      Fun.protect
        ~finally:(fun () -> Fault.disarm_storage ())
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
      let w = Rjournal.open_append ~epoch:4 [ p0; p1 ] in
      let records = [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
      List.iter (Rjournal.append w) records;
      Rjournal.close w;
      (* destroy replica 0 entirely: everything survives on replica 1 *)
      Sys.remove p0;
      let r = Rjournal.recover [ p0; p1 ] in
      check_bool "all records back" true (r.Rjournal.recovered = records);
      check_bool "loss was not honest-loss" true (not r.Rjournal.all_replicas_damaged);
      check_int "destroyed replica healed" 5 r.Rjournal.healed;
      check_int "fencing floor survives the merge" 4 r.Rjournal.max_epoch;
      let sc0 = Journal.scan p0 in
      check_bool "replica 0 rewritten with the merge" true
        (sc0.Journal.records = records && sc0.Journal.max_epoch = 4);
      (* corrupt one record on replica 1 only: its sibling still holds
         it, so the merge keeps all five and read-repairs replica 1 *)
      let b = Bytes.of_string (read_file p1) in
      let off = String.length (Journal.frame_epoch ~epoch:4 "r1") + Journal.header_len2 in
      Bytes.set b off '?';
      write_file p1 (Bytes.to_string b);
      let r = Rjournal.recover [ p0; p1 ] in
      check_bool "merge keeps every record" true (r.Rjournal.recovered = records);
      check_int "one frame quarantined" 1 r.Rjournal.quarantined;
      check_bool "not honest-loss: a healthy replica survived" true
        (not r.Rjournal.all_replicas_damaged);
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
      let r = Rjournal.recover [ p0; p1 ] in
      check_int "the doubly-lost record is gone" 4 (List.length r.Rjournal.recovered);
      check_bool "honest loss is carved out" true r.Rjournal.all_replicas_damaged)

let fence_rejects_stale_appends =
  test "a stale-epoch writer is fenced off before touching the disk" (fun () ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      let p = Filename.concat dir "journal" in
      let before = Fence.rejections_for dir in
      ignore (Fence.acquire dir 1);
      let old_owner = Rjournal.open_append ~epoch:1 ~fence_key:dir [ p ] in
      Rjournal.append old_owner "acked-before-handover";
      (* ownership moves on: a later epoch is granted for the home *)
      ignore (Fence.acquire dir 2);
      (match Rjournal.append old_owner "zombie-write" with
      | () -> Alcotest.fail "stale append must raise"
      | exception Fence.Stale { held; current; _ } ->
        check_int "held" 1 held;
        check_int "current" 2 current);
      Rjournal.close old_owner;
      check_int "rejection counted" (before + 1) (Fence.rejections_for dir);
      let sc = Journal.scan p in
      check_bool "nothing reached the disk" true
        (sc.Journal.records = [ "acked-before-handover" ]);
      (* the new owner writes through the same fence *)
      let new_owner = Rjournal.open_append ~epoch:2 ~fence_key:dir [ p ] in
      Rjournal.append new_owner "after-handover";
      Rjournal.close new_owner;
      check_bool "new owner appends fine" true
        ((Journal.scan p).Journal.records
        = [ "acked-before-handover"; "after-handover" ]);
      (* an old grant never lowers the fence *)
      check_int "acquire keeps the maximum" 2 (Fence.acquire dir 1))

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
      let r = Scrub.scrub_home [ dir; rdir ] in
      check_bool "not healthy before repair" true (not r.Scrub.healthy);
      check_bool "converged after repair" true r.Scrub.converged;
      check_int "corrupt frame quarantined" 1 r.Scrub.frames_quarantined;
      check_bool "replicas repaired" true
        (r.Scrub.repaired_replicas + r.Scrub.recreated_replicas >= 2);
      check_bool "records healed across the set" true (r.Scrub.records_healed > 0);
      (* a second pass finds a healthy, converged home and rewrites
         nothing *)
      let r2 = Scrub.scrub_home [ dir; rdir ] in
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
      let chain_edges reports =
        (* the Allowed list built straight from the live reports *)
        let c = Homeguard_detector.Chain.create () in
        List.iter
          (fun (r : Install_flow.report) ->
            Homeguard_detector.Chain.allow c r.Install_flow.threats)
          reports;
        Homeguard_detector.Chain.allowed_edges c
      in
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
          let reference = chain_edges reports in
          if reference <> [] then any_edges := true;
          check_bool "kept threats" true (kept live = kept replayed);
          check_bool "live Allowed list matches its reports" true
            (Install_flow.allowed_edges live = reference);
          check_bool "replayed Allowed list matches the live reports" true
            (Install_flow.allowed_edges replayed = reference);
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
          let edges = Install_flow.allowed_edges (Home.flow home) in
          Home.close home;
          let home2, _ = Home.open_ ~dir () in
          check_string "recovered state digest" digest (Home.state_digest home2);
          check_bool "recovered Allowed list" true
            (Install_flow.allowed_edges (Home.flow home2) = edges);
          check_bool "recovered home has no pending proposal" true
            (Install_flow.pending (Home.flow home2) = None);
          Home.close home2)
        (Homeguard_corpus.Corpus.synth ~seed:5 ~n_homes:6);
      check_bool "some home kept a threat edge" true !any_edges)

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
      let r = Journal.recover path in
      check_int "three records survive" 3 (List.length r.Journal.recovered);
      check_int "one quarantined" 1 r.Journal.quarantined;
      check_int "torn bytes" 17 r.Journal.torn_bytes;
      check_bool "damage index" true (r.Journal.damage_index = Some 2);
      (* the surviving records are decodable config events *)
      List.iter
        (fun p ->
          match Event.of_string p with
          | Event.Config _ -> ()
          | _ -> Alcotest.fail "expected a config event")
        r.Journal.recovered;
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
          scan_roundtrip;
          scan_empty;
          torn_tail_every_cut;
          flip_payload_quarantines;
          flip_length_field_resyncs;
          flip_magic_resyncs;
          recover_rewrites_and_quarantines;
          append_then_scan;
          event_roundtrip;
        ] );
      ( "ingest",
        [
          ingest_outcomes;
          ingest_window_boundaries;
          ingest_duplicate_after_ack;
          ingest_envelope;
          ingest_sender_redelivery_is_harmless;
        ] );
      ( "home",
        [
          home_persists;
          home_skips_undecodable_payloads;
          home_rerun_is_idempotent;
          home_out_of_order_equals_in_order;
          home_uninstall_and_update;
          compaction_preserves_state;
        ] );
      ( "crash-matrix",
        [ crash_matrix; torn_write_reports_damage; flip_marks_changed_apps ] );
      ( "replication",
        [
          epoch_frames;
          rjournal_merge_repairs;
          fence_rejects_stale_appends;
          scrub_repairs_and_audit_is_identical;
          replay_determinism_property;
          replayed_install_equals_live;
        ] );
      ("merge", Test_merge.tests);
      ("fixture", [ fixture_recovers ]);
    ]
