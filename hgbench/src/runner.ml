(** One run of one workload: scratch root, workload, metrics, oracles. *)

type workload = {
  name : string;
  run : Workload.params -> Workload.result;
}

let workloads =
  [
    { name = "corpus-audit"; run = Corpus_audit.run };
    { name = "fleet-install"; run = Fleet_install.run };
    { name = "fleet-restart"; run = Fleet_restart.run };
    { name = "big-home"; run = Big_home.run };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Out.metric list;
  dataset_id : string;
  samples : int;  (** untraced request latencies behind the percentiles *)
  digest : string;
  digest_ok : bool option;  (** [None]: no checked-in digest for this seed *)
  spans : Spans.span list;
}

(** Run [w] under a fresh scratch [root], which is removed afterwards
    whatever happens. [expected_digest] is the checked-in regression
    oracle for this seed, if there is one. *)
let run ?expected_digest ~root ~seed ~seconds ~trace ~small w =
  Homeguard_bench.Fsutil.rm_rf root;
  Env.mkdirs root;
  let tracer = if trace then Some (Spans.create ()) else None in
  let r =
    Fun.protect
      ~finally:(fun () -> Homeguard_bench.Fsutil.rm_rf root)
      (fun () -> w.run { Workload.seed; seconds; tracer; root; small })
  in
  let spans = match tracer with Some tr -> Spans.spans tr | None -> [] in
  let digest_ok = Option.map (fun d -> d = r.Workload.digest) expected_digest in
  let digest_failed = if digest_ok = Some false then 1 else 0 in
  let attempted = r.Workload.attempted + if digest_ok = None then 0 else 1 in
  let failed = r.Workload.failed + digest_failed in
  {
    correct = failed = 0 && r.Workload.latency <> [];
    attempted = max 1 attempted;
    failed;
    metrics = (if trace then Metrics.layer r spans else Metrics.e2e r);
    dataset_id = Printf.sprintf "%s/%s" (Env.corpus_hash ()) r.Workload.dataset;
    samples = List.length r.Workload.latency;
    digest = r.Workload.digest;
    digest_ok;
    spans;
  }
