(** HomeGuard end-to-end benchmark.

    hgbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

    Runs one workload, checks its outputs, prints every metric with its
    unit, and ends with one JSON line:
    [{"correct", "attempted", "failed", "metrics"}]. An untraced run
    ([--trace 0]) prints the end-to-end metrics; a traced run prints
    the per-layer metrics and writes its spans to [--spans] (default
    [.hgbench/spans/<workload>-seed<N>.json]). Exits 1 when a check
    fails and 2 on a usage or set-up error. *)

open Hgbench

let usage () =
  prerr_endline
    "usage: hgbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]\n\
    \  workloads: corpus-audit fleet-install fleet-restart big-home";
  exit 2

let digests_file = "hgbench/digests.txt"

(* "<workload> <seed> <digest>" lines: the regression oracle for the
   default seeds. *)
let expected_digest ~workload ~seed =
  List.find_map
    (fun line ->
      match Env.words line with
      | [ w; s; d ] when w = workload && int_of_string_opt s = Some seed -> Some d
      | _ -> None)
    (Env.read_lines digests_file)

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and spans_file = ref None in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--spans" :: v :: rest -> spans_file := Some v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name, seed, seconds, trace =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some n, Some t when n > 0 -> (w, s, n, t)
    | _ -> usage ()
  in
  let w =
    match Runner.find name with
    | Some w -> w
    | None ->
      prerr_endline ("hgbench: unknown workload " ^ name);
      usage ()
  in
  let root = Filename.concat ".hgbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let outcome =
    try
      Ok
        (Runner.run
           ?expected_digest:(expected_digest ~workload:name ~seed)
           ~root ~seed ~seconds:(float_of_int seconds) ~trace ~small:false w)
    with e -> Error e
  in
  (try Unix.rmdir ".hgbench" with Unix.Unix_error _ -> ());
  let o =
    match outcome with
    | Ok o -> o
    | Error e ->
      Printf.eprintf "hgbench: %s failed: %s\n" name (Printexc.to_string e);
      exit 2
  in
  Printf.printf "workload: %s\ndataset: %s\ncode: %s\n" name o.Runner.dataset_id
    (Env.code_version ());
  Printf.printf "latency samples: %d%s; setups: %d\n" o.Runner.samples
    (if Sample.tail_supported ~p:0.9 o.Runner.samples then ""
     else " (fewer than 10 beyond p90)")
    Workload.setup_reps;
  Printf.printf "digest: %s (%s)\n" o.Runner.digest
    (match o.Runner.digest_ok with
    | Some true -> "matches the checked-in oracle"
    | Some false -> "DIFFERS from the checked-in oracle"
    | None -> "no checked-in oracle for this seed");
  if trace then begin
    let file =
      match !spans_file with
      | Some f -> f
      | None ->
        Env.mkdirs ".hgbench/spans";
        Printf.sprintf ".hgbench/spans/%s-seed%d.json" name seed
    in
    Spans.write_file file o.Runner.spans;
    Printf.printf "spans: %d written to %s\n" (List.length o.Runner.spans) file
  end;
  List.iter (Out.pp_metric stdout) o.Runner.metrics;
  print_endline
    (Out.result_line ~correct:o.Runner.correct ~attempted:o.Runner.attempted
       ~failed:o.Runner.failed o.Runner.metrics);
  exit (if o.Runner.correct then 0 else 1)
