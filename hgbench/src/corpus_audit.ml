(** [corpus-audit]: the paper's app-store vetting run (§VIII-B). One
    client, closed loop: each pass extracts the audit pool from source
    and audits every cross-app rule pair, uncached, on one domain. Seed
    0 keeps corpus order; other seeds permute it. Store, cache, serve
    and fleet do no work here, so this is the control for changes to
    them. *)

module Corpus = Homeguard_corpus.Corpus
module Detector = Homeguard_detector.Detector
module Rule = Homeguard_rules.Rule
module Threat = Homeguard_detector.Threat
open Workload

let warmup_passes = 3

let entries ~small seed =
  let pool = Corpus.audit_apps in
  let pool = if small then List.filteri (fun i _ -> i < 24) pool else pool in
  if seed = 0 then pool else shuffle (Random.State.make [| 0xc0a; seed |]) pool

(* What one pass yields besides its threats: the plan size and the
   solver work, for the per-layer counters. *)
type pass = { audit : Detector.audit_result; pairs : int; solves : int; undecided : int }

(* One pass runs exactly what [audit_all] runs without a pair cache —
   plan, then audit the plan — with every solve passed through a hook
   that only opens a span. Spans are recorded on traced requests only. *)
let pass ?tracer entries =
  let span name f = Spans.traced tracer name f in
  let apps = List.map (fun e -> span "symexec.extract" (fun () -> extract e)) entries in
  let config =
    {
      Detector.offline_config with
      Detector.shared_cache = Some (fun _query solve -> span "solver.solve" solve);
    }
  in
  let ctx = Detector.create config in
  let plan = span "detector.plan" (fun () -> Detector.candidate_pairs ctx apps) in
  let audit = span "detector.detect" (fun () -> Detector.audit_pairs ~jobs:1 ctx plan) in
  {
    audit;
    pairs = Array.length plan;
    solves = ctx.Detector.solver_calls;
    undecided = ctx.Detector.undecided_solves;
  }

let clean (a : Detector.audit_result) =
  a.Detector.failures = [] && a.Detector.shed = 0 && a.Detector.retried = 0

(* The slow reference: no solver-result reuse, no bitset domains, no
   formula memoization. Both switches are restored afterwards. *)
let reference entries =
  let module Domain = Homeguard_solver.Domain in
  let module Formula = Homeguard_solver.Formula in
  let bitset = !Domain.bitset_enabled and memo = !Formula.memo_enabled in
  Domain.bitset_enabled := false;
  Formula.memo_enabled := false;
  Fun.protect
    ~finally:(fun () ->
      Domain.bitset_enabled := bitset;
      Formula.memo_enabled := memo)
    (fun () ->
      let ctx = Detector.create { Detector.offline_config with Detector.reuse = false } in
      Detector.audit_all ~jobs:1 ctx (List.map extract entries))

(* Rule pairs that produced at least one threat, in either direction. *)
let pairs_with_threats (ts : Threat.t list) =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (t : Threat.t) ->
      let a = t.Threat.rule1.Rule.rule_id and b = t.Threat.rule2.Rule.rule_id in
      Hashtbl.replace seen (min a b, max a b) ())
    ts;
  Hashtbl.length seen

let run (p : params) =
  let t = tally () in
  let entries, setup_s =
    repeated_setup
      (fun _ ~untimed:_ ->
        let entries = entries ~small:p.small p.seed in
        for _ = 1 to warmup_passes do
          ignore (pass entries : pass)
        done;
        entries)
      ignore
  in
  let expected = ref None in
  let m = meter () in
  let last = ref None in
  let i = ref 0 in
  while !i = 0 || now_s m < p.seconds do
    let traced = traced_request p !i in
    let r = closed m ~traced (fun () -> pass ?tracer:p.tracer entries) in
    last := Some r;
    (* every pass must match the first, threat for threat *)
    let d = digest_strings (threat_lines r.audit.Detector.threats) in
    (match !expected with None -> expected := Some d | Some _ -> ());
    check t (clean r.audit && r.undecided = 0 && Some d = !expected)
      (Printf.sprintf "pass %d diverged or failed" !i);
    incr i
  done;
  stop m;
  (* memory while one pass's apps and audit are held *)
  let held = pass entries in
  let heap_mb = live_heap_mb () in
  ignore (Sys.opaque_identity held);
  let slow = reference entries in
  let slow_digest = digest_strings (threat_lines slow.Detector.threats) in
  check t
    (clean slow && Some slow_digest = !expected)
    "fast passes differ from the slow reference";
  List.iter (fun n -> prerr_endline ("corpus-audit: " ^ n)) (List.rev t.notes);
  let counts =
    match !last with
    | None -> []
    | Some r ->
      (* cross-app rule pairs before the pre-filters *)
      let all_pairs =
        let rules = List.map (fun e -> List.length (extract e).Rule.rules) entries in
        let total = List.fold_left ( + ) 0 rules in
        (total * (total - 1) / 2)
        - List.fold_left (fun acc n -> acc + (n * (n - 1) / 2)) 0 rules
      in
      [
        count "detector.candidate_pairs" r.pairs;
        count "detector.threats" (List.length r.audit.Detector.threats);
        ratio "detector.prefilter_keep_ratio" r.pairs all_pairs;
        ratio "detector.threat_yield" (pairs_with_threats r.audit.Detector.threats) r.pairs;
        count "solver.calls" r.solves;
        count "solver.undecided" r.undecided;
      ]
  in
  {
    dataset = Printf.sprintf "corpus-audit/apps=%d/seed=%d" (List.length entries) p.seed;
    setup_s;
    latency = m.plain;
    traced_ms = m.traced;
    served = m.served;
    late_ms = m.pacer.Arrivals.late_ms;
    heap_mb;
    attempted = t.attempted;
    failed = t.failed;
    digest = Option.value ~default:"" !expected;
    counts;
    calib = m.calib;
  }
