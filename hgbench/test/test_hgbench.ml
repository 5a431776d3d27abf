(** The benchmark's own machinery: percentiles and the tail rule, the
    open-loop schedule and its lateness accounting, self time from
    nested spans, metric names, and BENCHMARK.json against what a short
    run of each workload prints. *)

open Hgbench
module Json = Homeguard_bench.Json

let test name f = Alcotest.test_case name `Quick f
let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

(* -- samples --------------------------------------------------------------- *)

let percentiles =
  test "nearest-rank percentiles and the tail sample-count rule" (fun () ->
      let xs = List.init 20 (fun i -> float_of_int (20 - i)) in
      check_float "p50 of 1..20" 10.0 (Sample.pct 0.5 xs);
      check_float "p90 of 1..20" 18.0 (Sample.pct 0.9 xs);
      check_float "p100 is the maximum" 20.0 (Sample.pct 1.0 xs);
      check_float "an empty sample reads 0" 0.0 (Sample.pct 0.5 []);
      Alcotest.(check bool) "p90 needs 100 samples" false (Sample.tail_supported ~p:0.9 99);
      Alcotest.(check bool) "p90 of 100" true (Sample.tail_supported ~p:0.9 100);
      Alcotest.(check bool) "p99 of 1000" true (Sample.tail_supported ~p:0.99 1000))

(* -- open loop --------------------------------------------------------------- *)

let schedule_is_seeded =
  test "the open-loop schedule is fixed by its seed" (fun () ->
      let schedule seed = Array.sub (Arrivals.poisson ~seed ~rate:1000.0 ~min_n:500 0.0) 0 500 in
      let a = schedule 7 and b = schedule 7 and c = schedule 8 in
      Alcotest.(check bool) "same seed, same schedule" true (a = b);
      Alcotest.(check bool) "another seed, another schedule" false (a = c);
      Alcotest.(check bool) "due times never go back" true
        (Array.for_all Fun.id (Array.mapi (fun i t -> i = 0 || t >= a.(i - 1)) a));
      let mean_gap = a.(499) /. 500.0 in
      Alcotest.(check bool) "mean gap near 1/rate" true (mean_gap > 0.0008 && mean_gap < 0.0012);
      let long = Arrivals.poisson ~seed:7 ~rate:1000.0 ~min_n:10 2.0 in
      Alcotest.(check bool) "a longer run extends the schedule" true (Array.sub long 0 500 = a);
      Alcotest.(check bool) "lasts the run" true
        (long.(Array.length long - 1) <= 2.0 && Array.length long > 1800);
      Alcotest.(check int) "at least min_n" 50
        (Array.length (Arrivals.poisson ~seed:7 ~rate:1000.0 ~min_n:50 0.001)))

let lateness_is_accounted =
  test "a stall charges its wait to the next request, not the generator" (fun () ->
      let p = Arrivals.pacer () in
      let (), _, _ = Arrivals.send p 0.0 (fun () -> Unix.sleepf 0.02) in
      (* due 5 ms in, sent only after the 20 ms stall ends *)
      let (), latency, service = Arrivals.send p 0.005 (fun () -> ()) in
      Alcotest.(check bool) "latency counts from the due time" true (latency >= 15.0);
      Alcotest.(check bool) "service time excludes the wait" true (service < 5.0);
      Alcotest.(check int) "one lateness sample per request" 2 (List.length p.Arrivals.late_ms);
      Alcotest.(check bool) "the generator itself was not late" true
        (List.for_all (fun ms -> ms < 5.0) p.Arrivals.late_ms))

(* -- calibration ------------------------------------------------------------- *)

let calibration_scales =
  test "timings are scaled by the kernel runs near them" (fun () ->
      (* one kernel run every 0.1 s: at the reference speed for the first
         4 s, four times slower after *)
      let at_s = List.init 100 (fun i -> float_of_int i /. 10.0) in
      let ms =
        List.map (fun s -> if s < 4.0 then Calib.reference_ms else 4.0 *. Calib.reference_ms) at_s
      in
      let cal =
        {
          Calib.start_ns = 0L;
          at_s = List.rev at_s;
          ms = List.rev ms;
          spent_ms = 0.0;
          fastest_ms = Calib.reference_ms;
        }
      in
      let scale = Calib.scale cal in
      check_float "at the reference speed" 1.0 (scale 2.0);
      check_float "four times slower" 0.25 (scale 8.0);
      check_float "past the last run, the nearest" 0.25 (scale 30.0);
      check_float "the whole phase's median" 0.25 (Calib.overall cal))

(* -- spans ------------------------------------------------------------------- *)

let span ?(parent = 0) id name s e =
  { Spans.id; parent; request = 1; name; start_ns = Int64.of_int s; end_ns = Int64.of_int e }

let self_time =
  test "self time is duration minus the time children cover" (fun () ->
      let spans =
        [
          span 1 "route" 0 100;
          span ~parent:1 2 "install" 10 50;
          span ~parent:2 3 "solve" 20 30;
          span ~parent:2 4 "solve" 25 40;
          span ~parent:1 5 "keep" 60 70;
        ]
      in
      let self = Spans.self_by_name spans in
      let get n = Int64.to_int (Hashtbl.find self n) in
      Alcotest.(check int) "route: 100 - (40 + 10)" 50 (get "route");
      Alcotest.(check int) "install: 40 - union [20,40), overlaps counted once" 20
        (get "install");
      Alcotest.(check int) "self time sums over spans of a name" 25 (get "solve");
      Alcotest.(check int) "keep" 10 (get "keep"))

let recorded_nesting =
  test "recorded spans nest, and untraced requests record nothing" (fun () ->
      let tr = Spans.create () in
      Spans.begin_request tr ~traced:false 0;
      Spans.with_span tr "outer" (fun () -> Spans.with_span tr "inner" ignore);
      Alcotest.(check int) "untraced" 0 (List.length (Spans.spans tr));
      Spans.begin_request tr ~traced:true 1;
      Spans.with_span tr "outer" (fun () -> Spans.with_span tr "inner" ignore);
      match Spans.spans tr with
      | [ inner; outer ] ->
        Alcotest.(check string) "inner closes first" "inner" inner.Spans.name;
        Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
        Alcotest.(check int) "request id" 1 outer.Spans.request
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

(* -- metric names and BENCHMARK.json ------------------------------------------ *)

let names_valid =
  test "metric names match [A-Za-z0-9_.-]+" (fun () ->
      List.iter
        (fun (n, _) -> Alcotest.(check bool) n true (Out.valid_name n))
        (Metrics.end_to_end @ Metrics.per_layer);
      List.iter
        (fun n -> Alcotest.(check bool) n false (Out.valid_name n))
        [ ""; "_lead"; "has space"; "a/b"; String.make 65 'a' ])

let benchmark_json () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let str k j = Option.get (Option.bind (Json.member k j) Json.to_str)
let items k j = Option.get (Option.bind (Json.member k j) Json.to_list)
let metric_units k j = List.map (fun m -> (str "name" m, str "unit" m)) (items k j)

let benchmark_declares =
  test "BENCHMARK.json declares the workloads and metrics the code prints" (fun () ->
      let j = benchmark_json () in
      (match j with
      | Json.Obj fields ->
        Alcotest.(check (list string)) "top-level keys"
          [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
          (List.sort compare (List.map fst fields))
      | _ -> Alcotest.fail "not an object");
      Alcotest.(check (list string)) "workloads"
        (List.map (fun w -> w.Runner.name) Runner.workloads)
        (List.map (str "name") (items "workloads" j));
      Alcotest.(check (list (pair string string))) "end-to-end" Metrics.end_to_end
        (metric_units "end_to_end" j);
      Alcotest.(check (list (pair string string))) "per-layer" Metrics.per_layer
        (metric_units "per_layer" j);
      List.iter
        (fun m ->
          let bound = Option.get (Option.bind (Json.member "bound" m) Json.to_number) in
          Alcotest.(check bool) (str "name" m ^ " bound") true (bound > 0.0 && bound <= 0.25))
        (items "end_to_end" j))

(* A short run of every workload, untraced and traced, at the small
   sizes: it must pass its own checks and print exactly the metrics
   BENCHMARK.json names. *)
let short_runs =
  List.concat_map
    (fun (w : Runner.workload) ->
      List.map
        (fun trace ->
          test
            (Printf.sprintf "%s %s run prints every metric" w.Runner.name
               (if trace then "traced" else "untraced"))
            (fun () ->
              (* a root per run: the store's fence registry outlives a
                 fleet within one process *)
              let root = Printf.sprintf "scratch-%s-%b" w.Runner.name trace in
              let o = Runner.run ~root ~seed:1 ~seconds:0.2 ~trace ~small:true w in
              Alcotest.(check bool) "checks pass" true o.Runner.correct;
              Alcotest.(check int) "no failure" 0 o.Runner.failed;
              Alcotest.(check bool) "scratch root removed" false (Sys.file_exists root);
              let j = benchmark_json () in
              Alcotest.(check (list (pair string string))) "metrics"
                (metric_units (if trace then "per_layer" else "end_to_end") j)
                (List.map (fun (m : Out.metric) -> (m.Out.name, m.Out.unit_)) o.Runner.metrics);
              if not trace then
                List.iter
                  (fun (m : Out.metric) ->
                    Alcotest.(check bool) (m.Out.name ^ " is never 0") true (m.Out.value > 0.0))
                  o.Runner.metrics))
        [ false; true ])
    Runner.workloads

let () =
  Alcotest.run "hgbench"
    [
      ("samples", [ percentiles ]);
      ("open-loop", [ schedule_is_seeded; lateness_is_accounted ]);
      ("calibration", [ calibration_scales ]);
      ("spans", [ self_time; recorded_nesting ]);
      ("metrics", [ names_valid; benchmark_declares ]);
      ("workloads", short_runs);
    ]
