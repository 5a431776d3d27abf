(** The metrics a run prints, and how a workload's result becomes them.
    BENCHMARK.json names the same metrics; the tests hold the two
    together. *)

open Workload

(** Printed by an untraced run of every workload. *)
let end_to_end =
  [
    ("latency_ms_p50", "ms");
    ("latency_ms_p90", "ms");
    ("capacity_per_s", "1/s");
    ("setup_s", "s");
    ("heap_mb", "MB");
  ]

(** Span names; each becomes [<name>_pct], its share of all traced
    self time. *)
let spans =
  [
    "symexec.extract";
    "detector.plan";
    "detector.detect";
    "solver.solve";
    "fleet.route";
    "serve.install";
    "store.keep";
    "store.deliver";
    "store.uninstall";
    "serve.submit_audit";
    "serve.drain";
    "fleet.create";
    "fleet.close";
  ]

(** Counters the workloads read at their call boundaries; a workload
    that does not exercise a layer reports 0. *)
let counters =
  [
    ("detector.candidate_pairs", "count");
    ("detector.prefilter_keep_ratio", "ratio");
    ("detector.threats", "count");
    ("detector.threat_yield", "ratio");
    ("detector.threats_per_install_p50", "count");
    ("detector.chains", "count");
    ("solver.calls", "count");
    ("solver.undecided", "count");
    ("vcache.l2_hits", "count");
    ("vcache.l2_misses", "count");
    ("vcache.l2_inserts", "count");
    ("vcache.l2_hit_ratio", "ratio");
    ("vcache.fallbacks", "count");
    ("vcache.conflicts", "count");
    ("vcache.l1_hits", "count");
    ("vcache.l1_hit_ratio", "ratio");
    ("vcache.l1_hit_ratio_cold", "ratio");
    ("vcache.l1_hit_ratio_warm", "ratio");
    ("store.acks", "count");
    ("store.bytes_written", "count");
    ("store.bytes_per_ack", "ratio");
    ("store.fds_per_home", "count");
    ("store.replayed_records", "count");
    ("store.replay_records_per_s", "1/s");
    ("store.repaired_replicas", "count");
    ("store.healed_records", "count");
    ("serve.installs", "count");
    ("serve.busy", "count");
    ("serve.degraded", "count");
    ("serve.shed", "count");
    ("fleet.restarts", "count");
    ("fleet.unavailable", "count");
    ("fleet.crashed", "count");
  ]

let harness =
  [
    ("bench.trace_overhead_pct", "%");
    ("bench.span_cost_pct", "%");
    ("bench.traced_requests", "count");
    ("bench.spans", "count");
    ("bench.late_ms_p99", "ms");
    ("bench.late_ms_max", "ms");
  ]

(** Printed by a trace run of every workload. *)
let per_layer = List.map (fun s -> (s ^ "_pct", "%")) spans @ counters @ harness

(** Each end-to-end timing is put on the reference speed ({!Calib}),
    then read from [windows] equal slices of the timed phase: the timing
    in each slice, then the median slice. A burst that slows a few
    slices, such as a collection or a preemption, moves the median
    slice little, while a change in the code moves every slice.
    hgbench/README.md gives the measurements behind the choice. *)
let windows = 40

let sliced at_of xs =
  let span = List.fold_left (fun acc x -> Float.max acc (at_of x)) 0.0 xs in
  let a = Array.make windows [] in
  List.iter
    (fun x ->
      let k =
        if span <= 0.0 then 0
        else min (windows - 1) (int_of_float (at_of x /. span *. float_of_int windows))
      in
      a.(k) <- x :: a.(k))
    xs;
  List.filter (( <> ) []) (Array.to_list a)

let latency_pct p (r : result) =
  let scale = Calib.scale r.calib in
  Sample.median
    (List.map
       (fun w -> Sample.pct p (List.map (fun s -> s.ms *. scale s.at_s) w))
       (sliced (fun s -> s.at_s) r.latency))

let capacity (r : result) =
  let scale = Calib.scale r.calib in
  Sample.median
    (List.map
       (fun w ->
         let units = List.fold_left (fun acc s -> acc + s.units) 0 w in
         let busy = List.fold_left (fun acc s -> acc +. (s.busy_ms *. scale s.from_s)) 0.0 w in
         if busy > 0.0 then float_of_int units /. (busy /. 1000.0) else 0.0)
       (sliced (fun s -> s.from_s) r.served))

let e2e (r : result) =
  let v = function
    | "latency_ms_p50" -> latency_pct 0.5 r
    | "latency_ms_p90" -> latency_pct 0.9 r
    | "capacity_per_s" -> capacity r
    | "setup_s" -> Sample.median r.setup_s
    | "heap_mb" -> r.heap_mb
    | name -> invalid_arg name
  in
  List.map (fun (name, unit_) -> Out.metric name unit_ (v name)) end_to_end

(* What recording one span costs, in ns, measured on an empty body. *)
let span_cost_ns () =
  let tr = Spans.create () in
  Spans.begin_request tr ~traced:true 0;
  let n = 20_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    Spans.with_span tr "calibrate" ignore
  done;
  Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. float_of_int n

let layer (r : result) (spans_seen : Spans.span list) =
  let self = Spans.self_by_name spans_seen in
  let total = Hashtbl.fold (fun _ ns acc -> Int64.add acc ns) self 0L in
  let share name =
    match Hashtbl.find_opt self name with
    | Some ns when total > 0L -> 100.0 *. Int64.to_float ns /. Int64.to_float total
    | _ -> 0.0
  in
  List.iter
    (fun (m : Out.metric) ->
      if not (List.mem_assoc m.Out.name counters) then
        invalid_arg ("Metrics.layer: undeclared counter " ^ m.Out.name))
    r.counts;
  let counter (name, unit_) =
    match List.find_opt (fun (m : Out.metric) -> m.Out.name = name) r.counts with
    | Some m -> m
    | None -> Out.metric name unit_ 0.0
  in
  let overhead =
    let plain = Sample.median (List.map (fun s -> s.ms) r.latency)
    and traced = Sample.median r.traced_ms in
    if plain > 0.0 && traced > 0.0 then 100.0 *. ((traced /. plain) -. 1.0) else 0.0
  in
  List.map (fun s -> Out.metric (s ^ "_pct") "%" (share s)) spans
  @ List.map counter counters
  @ [
      Out.metric "bench.trace_overhead_pct" "%" overhead;
      Out.metric "bench.span_cost_pct" "%"
        (if total > 0L then
           100.0 *. span_cost_ns () *. float_of_int (List.length spans_seen)
           /. Int64.to_float total
         else 0.0);
      count "bench.traced_requests" (List.length r.traced_ms);
      count "bench.spans" (List.length spans_seen);
      Out.metric "bench.late_ms_p99" "ms" (Sample.pct 0.99 r.late_ms);
      Out.metric "bench.late_ms_max" "ms" (Sample.pct 1.0 r.late_ms);
    ]
