(** The verdict-cache contract: key soundness over the synthetic-home
    corpus (cached sweeps byte-identical to uncached, distinct cells
    never share a key), witness-template rehydration, Unknown markers
    never served, single-flight dedup across domains, journal
    round-trip and damage tolerance, and FIFO eviction; for the pair
    tier (L1), exact keys built from memoized per-app parts, hits shared
    by separately parsed copies of one app, and misses for a same-name
    app whose rules changed. *)

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
module Rule_json = Homeguard_rules.Rule_json

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
  List.map Threat.to_string r.Detector.threats

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
      (* both tiers on a fresh store: [jobs] fans out the detected pairs
         while L1 stores stay on the coordinator *)
      let tiered jobs =
        let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
        let h = Vcache.attach st ~owner:"tiers" in
        let threats = List.map (home_threats ~layer:(Vcache.configure h) ~jobs) homes in
        let c = Vcache.counters h in
        Vcache.close_store st;
        check_int "zero conflicts with both tiers" 0 c.Vcache.conflicts;
        (threats, c.Vcache.pair_inserts)
      in
      let seq, seq_inserts = tiered 1 in
      let par, par_inserts = tiered 2 in
      check_bool "both tiers at jobs 1 are byte-identical" true (base = seq);
      check_bool "both tiers at jobs 2 are byte-identical" true (base = par);
      check_bool "L1 stored pair matrices" true (seq_inserts > 0);
      check_int "L1 inserts at jobs 2 equal jobs 1" seq_inserts par_inserts)

(* -- pair tier (L1) -------------------------------------------------------------- *)

(* The L1 key rendered in full on every call, as before per-app parts:
   both apps' JSON digested, both binding sets rendered. *)
let ref_pair_key (pa : Detector.pair_audit) =
  let a, b = pa.Detector.pa_apps and ba, bb = pa.Detector.pa_bindings in
  let digest app = Digest.to_hex (Digest.string (Rule_json.to_string app)) in
  let bindings bs =
    String.concat ";"
      (List.map
         (fun (v, t) -> v ^ "=" ^ Term.to_string t)
         (List.sort (fun (x, _) (y, _) -> compare x y) bs))
  in
  String.concat "\n"
    [
      "vcp1";
      pa.Detector.pa_fingerprint;
      a.Rule.name ^ ":" ^ digest a;
      bindings ba;
      b.Rule.name ^ ":" ^ digest b;
      bindings bb;
      String.concat ";" (List.map (fun (v1, v2) -> v1 ^ "~" ^ v2) pa.Detector.pa_unify);
    ]

(* A home as the grouped audit sees it: apps in install order and a
   recorder fed the home's configuration URIs. *)
type l1_home = { mutable apps : Rule.smartapp list; recorder : Recorder.t }

let l1_home (h : Synth.home) =
  let recorder = Recorder.create () in
  List.iter
    (fun uri ->
      match Config_uri.decode uri with
      | u -> Recorder.record_uri recorder u
      | exception Config_uri.Malformed _ -> ())
    h.Synth.configs;
  { apps = List.map extract_app h.Synth.apps; recorder }

let mixed_config (home : l1_home) =
  {
    Detector.offline_config with
    Detector.app_constraints = Recorder.app_constraints home.recorder;
  }

let threat_view (t : Threat.t) = (Threat.to_string t, t.Threat.witness, t.Threat.severity)

(* The grouped audit through the L1 tier, with every pair audit it asks
   about recorded on the way. *)
let cached_audit ?(seen = ref []) h home =
  let config = Vcache.configure h (mixed_config home) in
  let pc = Option.get config.Detector.pair_cache in
  let pair_lookup pa =
    seen := pa :: !seen;
    pc.Detector.pair_lookup pa
  in
  let config = { config with Detector.pair_cache = Some { pc with Detector.pair_lookup } } in
  List.map threat_view (Detector.audit_all (Detector.create config) home.apps).Detector.threats

(* The flat, uncached plan: what the grouped audit must reproduce. *)
let flat_audit home =
  let ctx = Detector.create (mixed_config home) in
  List.map threat_view
    (Detector.audit_pairs ctx (Detector.candidate_pairs ctx home.apps)).Detector.threats

let n_pairs home =
  let n = List.length home.apps in
  n * (n - 1) / 2

let l1_homes ~seed ~min_apps =
  List.filter
    (fun (h : Synth.home) -> List.length h.Synth.apps >= min_apps)
    (Corpus.synth ~seed ~n_homes:40)

let l1_shared_across_parsed_copies =
  test "separately parsed copies of the same apps share L1 hits; a changed app misses"
    (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"l1" in
      let synth = List.hd (l1_homes ~seed:5 ~min_apps:4) in
      let home1 = l1_home synth and home2 = l1_home synth in
      check_bool "copies are distinct values" true
        (List.for_all2 ( != ) home1.apps home2.apps);
      let expected = flat_audit home1 in
      check_bool "first home: cold audit = flat plan" true (cached_audit h home1 = expected);
      let c = Vcache.counters h in
      check_int "first home: every pair misses" (n_pairs home1) c.Vcache.pair_misses;
      check_int "first home: no hit" 0 c.Vcache.pair_hits;
      check_bool "second home: audit = flat plan" true (cached_audit h home2 = expected);
      check_int "second home: every pair hits" (n_pairs home2) c.Vcache.pair_hits;
      check_int "second home: no new miss" (n_pairs home1) c.Vcache.pair_misses;
      (* the same name with one rule fewer: every pair it is in misses *)
      let changed =
        List.mapi
          (fun i (a : Rule.smartapp) ->
            if i = 0 then { a with Rule.rules = List.tl a.Rule.rules } else a)
          home2.apps
      in
      check_bool "the changed app has rules to drop" true
        ((List.hd home2.apps).Rule.rules <> []);
      let home3 = { home2 with apps = changed } in
      let hits = c.Vcache.pair_hits and misses = c.Vcache.pair_misses in
      check_bool "changed app: audit = flat plan" true (cached_audit h home3 = flat_audit home3);
      let others = List.length home3.apps - 1 in
      check_int "changed app: its pairs miss" (misses + others) c.Vcache.pair_misses;
      check_int "changed app: the other pairs hit" (hits + n_pairs home3 - others)
        c.Vcache.pair_hits;
      Vcache.close_store st)

(* Variants of a pair audit, each changing exactly one key component. *)
let one_component_changes (pa : Detector.pair_audit) =
  let a, b = pa.Detector.pa_apps and ba, bb = pa.Detector.pa_bindings in
  let fewer_rules (app : Rule.smartapp) =
    match app.Rule.rules with [] -> None | _ :: rest -> Some { app with Rule.rules = rest }
  in
  let extra = ("zz_extra", Term.Int 1) in
  let bump = function (v, Term.Int n) :: rest -> Some ((v, Term.Int (n + 1)) :: rest) | _ -> None in
  List.filter_map
    (fun (what, v) -> Option.map (fun pa' -> (what, pa')) v)
    [
      ("fingerprint", Some { pa with Detector.pa_fingerprint = pa.Detector.pa_fingerprint ^ ";x" });
      ("first app's rules", Option.map (fun a' -> { pa with Detector.pa_apps = (a', b) }) (fewer_rules a));
      ("second app's rules", Option.map (fun b' -> { pa with Detector.pa_apps = (a, b') }) (fewer_rules b));
      ("first app's bindings", Some { pa with Detector.pa_bindings = (extra :: ba, bb) });
      ("second app's bindings", Some { pa with Detector.pa_bindings = (ba, extra :: bb) });
      ("first app's values", Option.map (fun ba' -> { pa with Detector.pa_bindings = (ba', bb) }) (bump ba));
      ("second app's values", Option.map (fun bb' -> { pa with Detector.pa_bindings = (ba, bb') }) (bump bb));
      ("relation", Some { pa with Detector.pa_unify = ("zz_v1", "zz_v2") :: pa.Detector.pa_unify });
      ( "relation",
        match pa.Detector.pa_unify with
        | [] -> None
        | _ :: rest -> Some { pa with Detector.pa_unify = rest } );
    ]

let reparse (app : Rule.smartapp) =
  match Corpus.find app.Rule.name with
  | Some e -> extract_app e
  | None -> Alcotest.failf "not a corpus app: %s" app.Rule.name

let l1_keys_exact_over_events =
  test "L1 keys stay exact over reinstall and reconfigure events" (fun () ->
      let st = Vcache.open_store ~fsync:false ~dir:(fresh_dir ()) () in
      let h = Vcache.attach st ~owner:"keys" in
      let seen = ref [] and events = ref 0 and variants = ref 0 in
      List.iteri
        (fun k synth ->
          let home = l1_home synth in
          let check_event label =
            incr events;
            check_bool (label ^ ": grouped cached audit = flat plan") true
              (cached_audit ~seen h home = flat_audit home)
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
        (List.filteri (fun i _ -> i < 6) (l1_homes ~seed:7 ~min_apps:3));
      check_bool "events ran" true (!events >= 30);
      (* every key the audits asked for is the full rendering *)
      List.iter
        (fun pa -> check_bool "key = full rendering" true (Vcache.pair_key st pa = ref_pair_key pa))
        !seen;
      (* equal pair audits give equal keys; one changed component changes it *)
      List.iteri
        (fun i (pa : Detector.pair_audit) ->
          if i mod 7 = 0 then begin
            let key = Vcache.pair_key st pa in
            let a, b = pa.Detector.pa_apps and ba, bb = pa.Detector.pa_bindings in
            let copy =
              {
                pa with
                Detector.pa_apps = (reparse a, reparse b);
                pa_bindings = (List.map Fun.id ba, List.map Fun.id bb);
                pa_unify = List.map Fun.id pa.Detector.pa_unify;
              }
            in
            check_bool "an equal pair audit gives the same key" true
              (Vcache.pair_key st copy = key);
            List.iter
              (fun (what, pa') ->
                incr variants;
                let key' = Vcache.pair_key st pa' in
                check_bool ("changing the " ^ what ^ " changes the key") true (key' <> key);
                check_bool ("changed " ^ what ^ ": key = full rendering") true
                  (key' = ref_pair_key pa');
                check_bool "the original key is unchanged" true (Vcache.pair_key st pa = key))
              (one_component_changes pa)
          end)
        !seen;
      check_bool "variants checked" true (!variants > 100);
      Vcache.close_store st)

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
      ("property", [ sweep_is_byte_identical ]);
      ("pair tier", [ l1_shared_across_parsed_copies; l1_keys_exact_over_events ]);
    ]
