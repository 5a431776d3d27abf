(** The verdict-cache contract: key soundness over the synthetic-home
    corpus (cached sweeps byte-identical to uncached, distinct cells
    never share a key), witness-template rehydration, Unknown markers
    never served, single-flight dedup across domains, journal
    round-trip and damage tolerance, and FIFO eviction; cached audits
    equal to the flat uncached plan over reinstall and reconfigure
    events. *)

module Vcache = Homeguard_vcache.Vcache
module Abstract = Homeguard_vcache.Abstract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Solver = Homeguard_solver.Solver
module Budget = Homeguard_solver.Budget
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term
module Store = Homeguard_solver.Store
module Domain = Homeguard_solver.Domain
module Extract = Homeguard_symexec.Extract
module Recorder = Homeguard_config.Recorder
module Config_uri = Homeguard_config.Config_uri
module Corpus = Homeguard_corpus.Corpus
module Synth = Homeguard_corpus.Synth
module App_entry = Homeguard_corpus.App_entry
module Rule = Homeguard_rules.Rule

let test name f = (name, `Quick, f)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hg-vcache-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

(* -- shared helpers ------------------------------------------------------------ *)

let extract_app (e : App_entry.t) =
  (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app

(* A threat with its witness: the bindings in model order, sentinel
   bindings included, or "-" when there is none. *)
let witness_line (t : Threat.t) =
  let w =
    match t.Threat.witness with
    | None -> "-"
    | Some m ->
      String.concat ";" (List.map (fun (v, x) -> v ^ "=" ^ Domain.value_to_string x) m)
  in
  Threat.to_string t ^ "\t" ^ w

(* One synthetic home audited exactly the way the fleet audits it:
   extracted apps, recorded configuration, exhaustive pairwise audit. *)
let home_threats ?hook ?(layer = Fun.id) ~jobs (h : Synth.home) =
  let apps = List.map extract_app h.Synth.apps in
  let recorder = Recorder.create () in
  List.iter
    (fun uri ->
      match Config_uri.decode uri with
      | u -> Recorder.record_uri recorder u
      | exception Config_uri.Malformed _ -> ())
    h.Synth.configs;
  let config =
    layer
      {
        Detector.offline_config with
        Detector.app_constraints = Recorder.app_constraints recorder;
        Detector.shared_cache = hook;
      }
  in
  let ctx = Detector.create config in
  let r = Detector.audit_all ~jobs ctx apps in
  List.map witness_line r.Detector.threats

(* A minimal query family for exercising the cache directly: one
   abstractable threshold binding against a fixed device store. Homes
   in the family differ only in the threshold value. *)
let family_store =
  Store.of_list
    [ ("a.t", Domain.interval (-1000) 1000); ("dev", Domain.interval 0 1000) ]

let family_formula thresh =
  Formula.And
    [
      Formula.Atom (Formula.Eq, Term.Var "a.t", Term.Int thresh);
      Formula.Atom (Formula.Gt, Term.Var "dev", Term.Var "a.t");
    ]

let family_query thresh : Detector.solve_query =
  {
    Detector.q_kind = "t";
    q_apps = ("appA", "appB");
    q_formula = family_formula thresh;
    q_store = family_store;
    q_bindings = [ ("a.t", Term.Int thresh) ];
    q_fingerprint = "test-fp";
  }

let family_classify thresh =
  let q = family_query thresh in
  Abstract.classify ~kind:q.Detector.q_kind ~apps:q.Detector.q_apps
    ~fingerprint:q.Detector.q_fingerprint ~bindings:q.Detector.q_bindings
    ~store:q.Detector.q_store ~formula:q.Detector.q_formula

let solve_family thresh () = Solver.solve family_store (family_formula thresh)

let counting_hook h calls q thresh =
  Vcache.hook h q (fun () ->
      incr calls;
      solve_family thresh ())

(* -- key abstraction ----------------------------------------------------------- *)

let keys_same_cell =
  test "values in one predicate cell share a key; cell changes split it"
    (fun () ->
      let k200 = (family_classify 200).Abstract.key in
      let k300 = (family_classify 300).Abstract.key in
      let k990 = (family_classify 990).Abstract.key in
      check_bool "200 and 300 sit in the same cells" true (k200 = k300);
      check_bool "990 is near the 1000 breakpoint: different cell" true
        (k200 <> k990);
      (* fingerprint, kind and app pair all discriminate *)
      let q = family_query 200 in
      let reclass ~kind ~apps ~fingerprint =
        (Abstract.classify ~kind ~apps ~fingerprint
           ~bindings:q.Detector.q_bindings ~store:q.Detector.q_store
           ~formula:q.Detector.q_formula)
          .Abstract.key
      in
      check_bool "kind splits" true
        (reclass ~kind:"u" ~apps:q.Detector.q_apps ~fingerprint:"test-fp" <> k200);
      check_bool "fingerprint splits" true
        (reclass ~kind:"t" ~apps:q.Detector.q_apps ~fingerprint:"other" <> k200);
      check_bool "app pair splits" true
        (reclass ~kind:"t" ~apps:("appA", "appC") ~fingerprint:"test-fp" <> k200);
      check_bool "app order is normalized" true
        (reclass ~kind:"t" ~apps:("appB", "appA") ~fingerprint:"test-fp" = k200))

let keys_guard_arithmetic =
  test "arithmetic or oversized formulas are never abstracted" (fun () ->
      let arith =
        Formula.Atom
          (Formula.Gt, Term.Sub (Term.Var "dev", Term.Var "a.t"), Term.Int 5)
      in
      let cls =
        Abstract.classify ~kind:"t" ~apps:("a", "b") ~fingerprint:"fp"
          ~bindings:[ ("a.t", Term.Int 200) ]
          ~store:family_store ~formula:arith
      in
      check_int "no slots under arithmetic" 0 (Array.length cls.Abstract.slots);
      let big =
        Formula.And
          (List.init (Abstract.max_atoms + 1) (fun i ->
               Formula.Atom (Formula.Ge, Term.Var "dev", Term.Int i)))
      in
      let cls2 =
        Abstract.classify ~kind:"t" ~apps:("a", "b") ~fingerprint:"fp"
          ~bindings:[ ("a.t", Term.Int 200) ]
          ~store:family_store ~formula:big
      in
      check_int "no slots past the atom bound" 0 (Array.length cls2.Abstract.slots))

(* -- serving ------------------------------------------------------------------- *)

let rehydrated_witness_is_byte_identical =
  test "a confirmed template serves witnesses byte-identical to fresh solves"
    (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"t" in
      let calls = ref 0 in
      let v200 = counting_hook h calls (family_query 200) 200 in
      check_int "first member computes" 1 !calls;
      let v300 = counting_hook h calls (family_query 300) 300 in
      check_int "second member is the confirming probe" 2 !calls;
      let v400 = counting_hook h calls (family_query 400) 400 in
      check_int "third member serves from the template" 2 !calls;
      check_bool "cached verdicts equal fresh solves" true
        (v200 = solve_family 200 ()
        && v300 = solve_family 300 ()
        && v400 = solve_family 400 ());
      let c = Vcache.counters h in
      check_int "no conflicts" 0 c.Vcache.conflicts;
      check_bool "the template hit counted" true (c.Vcache.hits >= 1);
      (* exact-value revisit serves the stored model *)
      let again = counting_hook h calls (family_query 200) 200 in
      check_int "no recompute on exact values" 2 !calls;
      check_bool "same verdict" true (again = v200);
      Vcache.close_store st)

let unknown_is_never_served =
  test "Unknown verdicts are markers, never answers" (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"t" in
      let calls = ref 0 in
      let unknown =
        Budget.Unknown { Budget.trip = Budget.Prop_fuel; where = "test" }
      in
      let ask () =
        Vcache.hook h (family_query 200) (fun () ->
            incr calls;
            unknown)
      in
      check_bool "unknown returned" true (ask () = unknown);
      check_bool "unknown returned again" true (ask () = unknown);
      check_int "every lookup recomputed" 2 !calls;
      check_int "stale marker was seen" 1 (Vcache.counters h).Vcache.stale_unknowns;
      check_bool "marker is present" true
        (Vcache.verdict_kind st (family_classify 200).Abstract.key
        = Some "unknown");
      (* compaction expires the marker *)
      Vcache.compact st;
      check_int "compaction drops unknowns" 0 (Vcache.entries st);
      (* a later decisive verdict replaces the marker *)
      ignore (counting_hook h calls (family_query 200) 200);
      check_bool "decisive entry cached" true
        (Vcache.verdict_kind st (family_classify 200).Abstract.key = Some "sat");
      Vcache.close_store st)

let single_flight_dedup =
  test "concurrent lookups of one class solve once" (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"t" in
      let calls = Atomic.make 0 in
      let ask () =
        Vcache.hook h (family_query 200) (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.05;
            solve_family 200 ())
      in
      let d1 = Stdlib.Domain.spawn ask and d2 = Stdlib.Domain.spawn ask in
      let v1 = Stdlib.Domain.join d1 and v2 = Stdlib.Domain.join d2 in
      check_int "one compute" 1 (Atomic.get calls);
      check_bool "both callers answered identically" true
        (v1 = v2 && v1 = solve_family 200 ());
      check_bool "the merge was counted" true
        ((Vcache.counters h).Vcache.single_flight_merges >= 1);
      Vcache.close_store st)

(* -- persistence --------------------------------------------------------------- *)

let fill _st h n =
  let calls = ref 0 in
  for i = 0 to n - 1 do
    (* spread values across distinct cells near distinct breakpoints *)
    ignore (counting_hook h calls (family_query (990 - i)) (990 - i))
  done

let reopen_round_trip =
  test "reopen replays the journal to an identical dump" (fun () ->
      let dir = fresh_dir () in
      let st = Vcache.open_store ~fsync:false ~dir () in
      let h = Vcache.attach st ~owner:"t" in
      fill st h 8;
      let live = Vcache.dump st in
      check_bool "entries cached" true (Vcache.entries st > 0);
      Vcache.close_store st;
      let st2 = Vcache.open_store ~fsync:false ~dir () in
      check_bool "dump identical across restart" true (Vcache.dump st2 = live);
      check_int "no damage" 0 (Vcache.replay_damage st2);
      (* compaction preserves decisive state *)
      Vcache.compact st2;
      check_bool "dump identical after compaction" true (Vcache.dump st2 = live);
      Vcache.close_store st2;
      let st3 = Vcache.open_store ~fsync:false ~dir () in
      check_bool "dump identical after compacted reopen" true
        (Vcache.dump st3 = live);
      Vcache.close_store st3)

let torn_tail_dropped =
  test "a torn cache journal replays its intact prefix, never a torn entry"
    (fun () ->
      let dir = fresh_dir () in
      let st = Vcache.open_store ~fsync:false ~dir () in
      let h = Vcache.attach st ~owner:"t" in
      fill st h 6;
      let live = Vcache.dump st in
      Vcache.close_store st;
      (* tear the last frame mid-write *)
      let path = Filename.concat dir "cache.journal" in
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 7);
      Unix.close fd;
      let st2 = Vcache.open_store ~fsync:false ~dir () in
      check_bool "damage surfaced" true (Vcache.replay_damage st2 > 0);
      let d2 = Vcache.dump st2 in
      check_bool "recovered state is a prefix-consistent subset" true
        (List.for_all (fun kv -> List.mem kv live) d2);
      check_bool "most entries survived" true
        (List.length d2 >= List.length live - 1);
      Vcache.close_store st2;
      (* the damage-triggered rewrite is durable: a second reopen is
         clean and identical *)
      let st3 = Vcache.open_store ~fsync:false ~dir () in
      check_int "journal rewritten clean" 0 (Vcache.replay_damage st3);
      check_bool "replay deterministic" true (Vcache.dump st3 = d2);
      Vcache.close_store st3)

let eviction_is_bounded_and_journaled =
  test "the capacity bound evicts oldest-first and survives replay" (fun () ->
      let dir = fresh_dir () in
      let st = Vcache.open_store ~fsync:false ~max_entries:4 ~dir () in
      let h = Vcache.attach st ~owner:"t" in
      fill st h 7;
      check_bool "bounded" true (Vcache.entries st <= 4);
      check_bool "evictions counted" true ((Vcache.counters h).Vcache.evicts >= 3);
      let live = Vcache.dump st in
      Vcache.close_store st;
      let st2 = Vcache.open_store ~fsync:false ~max_entries:4 ~dir () in
      check_bool "replay honors the deletions" true (Vcache.dump st2 = live);
      Vcache.close_store st2)

(* A removed key left behind in the eviction queue must not make its
   re-inserted successor the oldest entry: each live key is queued once,
   at its latest insertion. *)
let replayed_delete_requeues =
  test "a key deleted then re-inserted by replay is evicted as the newest"
    (fun () ->
      let dir = fresh_dir () in
      Homeguard_store.Journal.write_atomic ~fsync:false
        (Filename.concat dir "cache.journal")
        [ "i\tk1\tU"; "i\tk2\tU"; "d\tk1"; "i\tk3\tU"; "i\tk1\tU" ];
      let st = Vcache.open_store ~fsync:false ~max_entries:2 ~dir () in
      Alcotest.(check (list string))
        "oldest-first keeps k3 and k1" [ "k1"; "k3" ]
        (List.map fst (Vcache.dump st));
      Vcache.close_store st)

let compacted_unknown_requeues =
  test "an Unknown marker dropped by compaction re-enters the queue at the back"
    (fun () ->
      let st = Vcache.open_store ~fsync:false ~max_entries:2 ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"t" in
      let calls = ref 0 in
      let key t = (family_classify t).Abstract.key in
      check_bool "three distinct classes" true
        (key 200 <> key 990 && key 990 <> key (-990) && key 200 <> key (-990));
      ignore
        (Vcache.hook h (family_query 200) (fun () ->
             Budget.Unknown { Budget.trip = Budget.Prop_fuel; where = "test" }));
      ignore (counting_hook h calls (family_query 990) 990);
      Vcache.compact st;
      check_int "compaction dropped the marker" 1 (Vcache.entries st);
      ignore (counting_hook h calls (family_query 200) 200);
      ignore (counting_hook h calls (family_query (-990)) (-990));
      Alcotest.(check (list string))
        "the oldest live entry was evicted"
        (List.sort compare [ key 200; key (-990) ])
        (List.map fst (Vcache.dump st));
      Vcache.close_store st)

(* -- corpus property ----------------------------------------------------------- *)

let sweep_is_byte_identical =
  test "synthetic-fleet audits: cached == uncached, cold and warm, any jobs"
    (fun () ->
      let homes = Corpus.synth ~seed:11 ~n_homes:40 in
      let base = List.map (home_threats ~jobs:1) homes in
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"prop" in
      let hook = Vcache.hook h in
      let cold = List.map (home_threats ~hook ~jobs:1) homes in
      check_bool "cold cached sweep is byte-identical" true (base = cold);
      let c = Vcache.counters h in
      check_bool "cross-home classes actually hit" true (c.Vcache.hits > 0);
      check_int "zero conflicts: the abstraction never lied" 0 c.Vcache.conflicts;
      let warm = List.map (home_threats ~hook ~jobs:1) homes in
      check_bool "warm cached sweep is byte-identical" true (base = warm);
      let parallel = List.map (home_threats ~hook ~jobs:2) homes in
      check_bool "parallel cached sweep is byte-identical" true (base = parallel);
      check_int "zero conflicts after every sweep" 0
        (Vcache.counters h).Vcache.conflicts;
      Vcache.close_store st;
      (* [Vcache.configure] on a fresh store, cold at each job count *)
      let configured jobs =
        let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
        let h = Vcache.attach st ~owner:"tiers" in
        let threats = List.map (home_threats ~layer:(Vcache.configure h) ~jobs) homes in
        let c = Vcache.counters h in
        Vcache.close_store st;
        check_int "zero conflicts through configure" 0 c.Vcache.conflicts;
        threats
      in
      check_bool "configured at jobs 1 is byte-identical" true (base = configured 1);
      check_bool "configured at jobs 2 is byte-identical" true (base = configured 2))

(* The fixed fleet pass: 400 homes (seed 13) audited uncached, then
   through one store cold and warm. Its counters are exact. *)
let fixed_fleet_counters =
  test "400-home fleet: cached == uncached at jobs 1 and 2; exact class and hit counts"
    (fun () ->
      let homes = Corpus.synth ~seed:13 ~n_homes:400 in
      let base = List.map (home_threats ~jobs:1) homes in
      let lines = List.concat base in
      check_int "threats" 788 (List.length lines);
      Alcotest.(check string) "witness digest over all homes"
        "0bba55701f2ee88f554138becfa87c08"
        (Digest.to_hex (Digest.string (String.concat "\n" lines)));
      let same label threats = Alcotest.(check (list (list string))) label base threats in
      same "uncached at jobs 2" (List.map (home_threats ~jobs:2) homes);
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"fixed" in
      let cached jobs = List.map (home_threats ~layer:(Vcache.configure h) ~jobs) homes in
      same "cold at jobs 1" (cached 1);
      let c = Vcache.counters h in
      check_int "cold solve hits" 74 c.Vcache.hits;
      check_int "cold solve misses" 709 c.Vcache.misses;
      check_int "solve classes" 707 (Vcache.entries st);
      same "warm at jobs 1" (cached 1);
      same "warm at jobs 2" (cached 2);
      check_int "conflicts" 0 (Vcache.counters h).Vcache.conflicts;
      Vcache.close_store st)

(* -- audits over events ---------------------------------------------------------- *)

(* A home as the grouped audit sees it: apps in install order and a
   recorder fed the home's configuration URIs. *)
type event_home = { mutable apps : Rule.smartapp list; recorder : Recorder.t }

let event_home (h : Synth.home) =
  let recorder = Recorder.create () in
  List.iter
    (fun uri ->
      match Config_uri.decode uri with
      | u -> Recorder.record_uri recorder u
      | exception Config_uri.Malformed _ -> ())
    h.Synth.configs;
  { apps = List.map extract_app h.Synth.apps; recorder }

let mixed_config (home : event_home) =
  {
    Detector.offline_config with
    Detector.app_constraints = Recorder.app_constraints home.recorder;
  }

let threat_view (t : Threat.t) = (Threat.to_string t, t.Threat.witness, t.Threat.severity)

(* The grouped audit through [Vcache.configure]. *)
let cached_audit h home =
  let config = Vcache.configure h (mixed_config home) in
  List.map threat_view (Detector.audit_all (Detector.create config) home.apps).Detector.threats

(* The flat, uncached plan: what the grouped audit must reproduce. *)
let flat_audit home =
  let ctx = Detector.create (mixed_config home) in
  List.map threat_view
    (Detector.audit_pairs ctx (Detector.candidate_pairs ctx home.apps)).Detector.threats

let reparse (app : Rule.smartapp) =
  match Corpus.find app.Rule.name with
  | Some e -> extract_app e
  | None -> Alcotest.failf "not a corpus app: %s" app.Rule.name

let cached_audits_exact_over_events =
  test "cached audits stay exact over reinstall and reconfigure events" (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"keys" in
      let events = ref 0 in
      List.iteri
        (fun k synth ->
          let home = event_home synth in
          let check_event label =
            incr events;
            check_bool (label ^ ": grouped cached audit = flat plan") true
              (cached_audit h home = flat_audit home)
          in
          check_event (synth.Synth.id ^ " grown");
          let n = List.length home.apps in
          for e = 1 to 6 do
            let target = List.nth home.apps ((k + e) mod n) in
            if e mod 2 = 1 then begin
              (* reinstall: a fresh parse of the app moves to the end *)
              home.apps <-
                List.filter (fun (a : Rule.smartapp) -> a != target) home.apps @ [ reparse target ];
              check_event (Printf.sprintf "%s reinstall %s" synth.Synth.id target.Rule.name)
            end
            else begin
              (* reconfigure: the app's values change, its devices stay *)
              let devices =
                match Recorder.find home.recorder target.Rule.name with
                | Some c -> c.Recorder.devices
                | None -> []
              in
              Recorder.record home.recorder
                {
                  Recorder.app_name = target.Rule.name;
                  devices;
                  values = [ ("threshold1", Term.Int (10 * e)); ("threshold2", Term.Str "on") ];
                };
              check_event (Printf.sprintf "%s reconfigure %s" synth.Synth.id target.Rule.name)
            end
          done)
        (List.filteri (fun i _ -> i < 6)
           (List.filter
              (fun (h : Synth.home) -> List.length h.Synth.apps >= 3)
              (Corpus.synth ~seed:7 ~n_homes:40)));
      check_bool "events ran" true (!events >= 30);
      Vcache.close_store st)

(* -- record codec --------------------------------------------------------------- *)

let random_bytes rs len = String.init len (fun _ -> Char.chr (Random.State.int rs 256))

let unescape_inverts_escaped =
  test "unescape inverts String.escaped on every byte string" (fun () ->
      for c = 0 to 255 do
        let s = String.make 1 (Char.chr c) in
        check_bool (Printf.sprintf "byte %d" c) true (Vcache.unescape (String.escaped s) = s)
      done;
      let rs = Random.State.make [| 41 |] in
      for _ = 1 to 4000 do
        let s = random_bytes rs (Random.State.int rs 65) in
        if Vcache.unescape (String.escaped s) <> s then
          Alcotest.failf "unescape (String.escaped %S) <> itself" s
      done)

(* Fragments that are, or nearly are, what String.escaped writes. *)
let fragments =
  [| "a"; "Z"; " "; "~"; "'"; "\""; "\\"; "\\\\"; "\\\""; "\\'"; "\\n"; "\\t"; "\\b"; "\\r";
     "\\x41"; "\\065"; "\\001"; "\\002"; "\\255"; "\\256"; "\\010"; "\\127"; "\\1"; "\\12";
     "\\0"; "\t"; "\n"; "\001"; "\002"; "\128"; "\255"; "0"; "9"; "n"; "t" |]

let fragment_string rs =
  String.concat ""
    (List.init (Random.State.int rs 8) (fun _ ->
         fragments.(Random.State.int rs (Array.length fragments))))

let unescape_accepts_only_canonical =
  test "whatever unescape accepts, String.escaped gives back" (fun () ->
      let rs = Random.State.make [| 43 |] in
      let accepted = ref 0 and rejected = ref 0 in
      for _ = 1 to 20000 do
        let x = fragment_string rs in
        match Vcache.unescape x with
        | s ->
          incr accepted;
          if String.escaped s <> x then
            Alcotest.failf "unescape accepted %S, which String.escaped writes as %S" x
              (String.escaped s)
        | exception Exit -> incr rejected
      done;
      check_bool "both outcomes exercised" true (!accepted > 1000 && !rejected > 1000);
      List.iter
        (fun x ->
          check_bool (Printf.sprintf "%S is rejected" x) true
            (match Vcache.unescape x with _ -> false | exception Exit -> true))
        [ "\\'"; "\\x41"; "\\065"; "\\010"; "\""; "\\"; "a\\"; "\\1"; "\\256"; "\t"; "\001"; "\200" ])

(* Cache payloads as the writer frames them, built by hand. *)
let esc = String.escaped
let sat_payload key = "i\t" ^ esc key ^ "\t"
let nasty = "t\tab\001\002\"q\"\\b\\\nnl\128\255'"

let payloads =
  [
    sat_payload nasty
    ^ "S\t" ^ String.concat "\001" [ "i-5"; "s" ^ esc nasty; "i" ^ string_of_int max_int; "s" ]
    ^ "\t" ^ String.concat "\001" [ esc ("x" ^ nasty) ^ "\002i" ^ string_of_int min_int;
                                    esc "y\n" ^ "\002s" ^ esc nasty ]
    ^ "\tC\001" ^ String.concat "\001" [ esc ("x" ^ nasty) ^ "\002c0:-3";
                                         esc "y\n" ^ "\002ls" ^ esc "\t\002" ];
    sat_payload "plain" ^ "S\t\t\tP";
    sat_payload "broken\255" ^ "S\ti0\t" ^ esc "v" ^ "\002i1\tB";
    sat_payload "empty-template" ^ "S\t\t\tC\001";
    sat_payload "unsat\001" ^ "U";
    sat_payload ("unknown" ^ nasty) ^ "K\t3\t" ^ esc ("budget\t\"exhausted\"\n\001\255");
    sat_payload "gone" ^ "U";
    "d\t" ^ esc "gone";
  ]

let junk_payload rs =
  let tokens =
    [| "i"; "d"; "\t"; "U"; "K"; "S"; "C"; "P"; "B"; "\001"; "\002"; "s"; "l"; "c"; ":";
       "-"; "0"; "12"; "\\"; "\\t"; "\\x41"; "\""; "k"; "i\t"; "d\t"; "\tU"; "\tS\t";
       "C\001"; "c1:2" |]
  in
  match Random.State.int rs 3 with
  | 0 -> String.concat "" (List.init (Random.State.int rs 12) (fun _ ->
           tokens.(Random.State.int rs (Array.length tokens))))
  | 1 ->
    (* a valid payload with one byte changed or inserted, mostly to a
       byte the format gives meaning to *)
    let p = List.nth payloads (Random.State.int rs (List.length payloads)) in
    let at = Random.State.int rs (String.length p) in
    let meaningful = "0123456789-+_x:\\\"'\t\001\002nrtbUKSCPBilcsd" in
    let c =
      if Random.State.bool rs then Char.chr (Random.State.int rs 256)
      else meaningful.[Random.State.int rs (String.length meaningful)]
    in
    (* 1 replaces the byte at [at], 0 inserts before it *)
    let skip = Random.State.int rs 2 in
    String.sub p 0 at ^ String.make 1 c ^ String.sub p (at + skip) (String.length p - at - skip)
  | _ ->
    let p = List.nth payloads (Random.State.int rs (List.length payloads)) in
    String.sub p 0 (Random.State.int rs (String.length p))

let records_decode_strictly =
  test "records re-encode to themselves or raise Exit, and nothing else" (fun () ->
      List.iter
        (fun p -> check_bool (Printf.sprintf "%S round-trips" p) true (Vcache.reencode_record p = p))
        payloads;
      let rs = Random.State.make [| 47 |] in
      let accepted = ref 0 in
      for _ = 1 to 20000 do
        let p = junk_payload rs in
        match Vcache.reencode_record p with
        | q ->
          incr accepted;
          if q <> p then Alcotest.failf "accepted %S but re-encoded it as %S" p q
        | exception Exit -> ()
        | exception e -> Alcotest.failf "%S raised %s" p (Printexc.to_string e)
      done;
      check_bool "some junk is well formed" true (!accepted > 100);
      List.iter
        (fun p ->
          check_bool (Printf.sprintf "%S is rejected" p) true
            (match Vcache.reencode_record p with _ -> false | exception Exit -> true))
        [ "i\tk\tK\t03\tr"; "i\tk\tK\t-0\tr"; "i\tk\tK\t+3\tr"; "i\tk\tK\t0x3\tr";
          "i\tk\tK\t1_0\tr"; "i\tk\tK\t99999999999999999999\tr"; "i\tk\tK\t\tr";
          "i\tk\tU\t"; "i\tk\tS\t\t\tC"; "i\tk\tS\ti1\001\t\tP"; "i\tk\tS\t\tv\t P";
          "i\tk\tS\t\t\tC\001v\002c1:2:3"; "d\tk\tU"; "d"; "x\tk"; "i\tk\\'\tU" ])

let write_cache_journal dir payloads =
  Homeguard_store.Journal.write_atomic ~fsync:false (Filename.concat dir "cache.journal") payloads

let escaped_fields_reopen =
  test "keys, models and reasons with control, quote and high bytes reopen identically"
    (fun () ->
      let dir = fresh_dir () in
      write_cache_journal dir payloads;
      let st = Vcache.open_store ~fsync:false ~dir () in
      let live = Vcache.dump st in
      check_int "no replay damage" 0 (Vcache.replay_damage st);
      check_int "every live entry decoded" 6 (List.length live);
      check_bool "the nasty key is held raw" true (List.mem_assoc nasty live);
      Vcache.close_store st;
      let st2 = Vcache.open_store ~fsync:false ~dir () in
      check_bool "dump identical across reopen" true (Vcache.dump st2 = live);
      check_int "no replay damage on reopen" 0 (Vcache.replay_damage st2);
      Vcache.close_store st2)

let non_canonical_frame_is_damage =
  test "a CRC-valid frame with a non-canonical escape is damage and compacted away"
    (fun () ->
      let dir = fresh_dir () in
      write_cache_journal dir [ "i\tk\\x41\tU"; "i\tk2\tU" ];
      let st = Vcache.open_store ~fsync:false ~dir () in
      check_int "the frame counts as damage" 1 (Vcache.replay_damage st);
      Alcotest.(check (list string)) "only the canonical entry" [ "k2" ]
        (List.map fst (Vcache.dump st));
      Vcache.close_store st;
      let journal = Homeguard_store.Journal.read_file (Filename.concat dir "cache.journal") in
      check_bool "compaction dropped the frame" false
        (List.exists (fun r -> r = "i\tk\\x41\tU")
           (Homeguard_store.Journal.scan_string journal).Homeguard_store.Journal.records);
      let st2 = Vcache.open_store ~fsync:false ~dir () in
      check_int "a clean reopen" 0 (Vcache.replay_damage st2);
      Alcotest.(check (list string)) "same entries" [ "k2" ] (List.map fst (Vcache.dump st2));
      Vcache.close_store st2)

let () =
  Alcotest.run "homeguard-vcache"
    [
      ("keys", [ keys_same_cell; keys_guard_arithmetic ]);
      ( "serving",
        [
          rehydrated_witness_is_byte_identical;
          unknown_is_never_served;
          single_flight_dedup;
        ] );
      ( "persistence",
        [
          reopen_round_trip;
          torn_tail_dropped;
          eviction_is_bounded_and_journaled;
          replayed_delete_requeues;
          compacted_unknown_requeues;
        ] );
      ( "codec",
        [
          unescape_inverts_escaped;
          unescape_accepts_only_canonical;
          records_decode_strictly;
          escaped_fields_reopen;
          non_canonical_frame_is_damage;
        ] );
      ("property", [ sweep_is_byte_identical; fixed_fleet_counters; cached_audits_exact_over_events ]);
    ]
