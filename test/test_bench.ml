(** The bench support library: JSON round-trips, nearest-rank
    percentiles, trajectory compare semantics and the in-process
    recursive remove. *)

module Json = Homeguard_bench.Json
module Stats = Homeguard_bench.Stats
module Trajectory = Homeguard_bench.Trajectory
module Fsutil = Homeguard_bench.Fsutil

(* -- JSON ---------------------------------------------------------------- *)

let json_roundtrip =
  Helpers.test "print/parse round-trip" (fun () ->
      let v =
        Json.Obj
          [
            ("s", Json.Str "a \"quoted\"\nline\twith\\slashes");
            ("i", Json.Int (-42));
            ("f", Json.Float 3.25);
            ("b", Json.Bool true);
            ("n", Json.Null);
            ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
            ("empty", Json.List []);
          ]
      in
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Helpers.check_bool "equal after round-trip" true (v = v')
      | Error e -> Alcotest.failf "parse failed: %s" e)

let json_accepts_standard =
  Helpers.test "parses standard JSON with escapes and exponents" (fun () ->
      match Json.of_string {|{"a":[1,2.5e2,"A\n"],"b":false}|} with
      | Ok v ->
        Helpers.check_bool "exponent" true
          (Json.member "a" v |> Option.get |> Json.to_list |> Option.get |> fun l ->
           List.nth l 1 |> Json.to_number = Some 250.0);
        Helpers.check_bool "unicode escape" true
          (Json.member "a" v |> Option.get |> Json.to_list |> Option.get |> fun l ->
           List.nth l 2 |> Json.to_str = Some "A\n")
      | Error e -> Alcotest.failf "parse failed: %s" e)

let json_rejects_garbage =
  Helpers.test "rejects malformed input" (fun () ->
      List.iter
        (fun s ->
          match Json.of_string s with
          | Ok _ -> Alcotest.failf "accepted %S" s
          | Error _ -> ())
        [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ])

(* -- percentiles --------------------------------------------------------- *)

let percentile_nearest_rank =
  Helpers.test "nearest-rank, not truncation" (fun () ->
      let sample = List.init 20 (fun i -> float_of_int (i + 1)) in
      (* p95 of 20 samples is rank ceil(0.95*20)=19, value 19.0; the old
         truncating index gave 20.0 (the maximum) *)
      Helpers.check_bool "p95" true (Stats.percentile 0.95 sample = Some 19.0);
      Helpers.check_bool "p100 is max" true (Stats.percentile 1.0 sample = Some 20.0);
      Helpers.check_bool "p0 clamps to min" true (Stats.percentile 0.0 sample = Some 1.0);
      Helpers.check_bool "median of singleton" true (Stats.percentile 0.5 [ 7.0 ] = Some 7.0))

let percentile_empty =
  Helpers.test "empty sample yields None, not a raise" (fun () ->
      Helpers.check_bool "percentile" true (Stats.percentile 0.95 [] = None);
      Helpers.check_bool "mean" true (Stats.mean [] = None))

(* -- trajectory ---------------------------------------------------------- *)

let key = { Trajectory.dataset_id = "d"; snapshot_hash = "h"; config = "c"; code_version = "v" }

let traj sections = { Trajectory.key; sections }

let sec title metrics = { Trajectory.title; metrics }

let trajectory_roundtrip =
  Helpers.test "trajectory file round-trips" (fun () ->
      let t =
        traj
          [
            sec "P1"
              Trajectory.
                [
                  metric ~direction:Exact "threats" 3845.0;
                  metric ~unit_:"ms" ~direction:Lower_better "wall_ms" 123.456;
                ];
            sec "A3" Trajectory.[ metric ~unit_:"us" ~direction:Lower_better "dnf" 39.0 ];
          ]
      in
      match Trajectory.of_string (Trajectory.to_string t) with
      | Ok t' -> Helpers.check_bool "equal" true (t = t')
      | Error e -> Alcotest.failf "parse failed: %s" e)

let compare_directions =
  Helpers.test "compare honors per-metric directions" (fun () ->
      let base =
        traj
          [
            sec "S"
              Trajectory.
                [
                  metric ~direction:Exact "count" 10.0;
                  metric ~direction:Lower_better "ms" 100.0;
                  metric ~direction:Higher_better "rate" 100.0;
                  metric ~direction:Info "noise" 100.0;
                ];
          ]
      in
      let cur =
        traj
          [
            sec "S"
              Trajectory.
                [
                  metric ~direction:Exact "count" 11.0;
                  metric ~direction:Lower_better "ms" 110.0;
                  metric ~direction:Higher_better "rate" 60.0;
                  metric ~direction:Info "noise" 900.0;
                ];
          ]
      in
      let status name deltas =
        (List.find (fun d -> d.Trajectory.metric_name = name) deltas).Trajectory.status
      in
      let d25 = Trajectory.compare ~threshold_pct:25.0 ~baseline:base ~current:cur in
      Helpers.check_bool "exact drift regresses" true (status "count" d25 = Trajectory.Regressed);
      Helpers.check_bool "+10% under 25% threshold ok" true
        (status "ms" d25 = Trajectory.Unchanged);
      Helpers.check_bool "-40% throughput regresses" true
        (status "rate" d25 = Trajectory.Regressed);
      Helpers.check_bool "info never gates" true (status "noise" d25 = Trajectory.Unchanged);
      let d5 = Trajectory.compare ~threshold_pct:5.0 ~baseline:base ~current:cur in
      Helpers.check_bool "+10% over 5% threshold regresses" true
        (status "ms" d5 = Trajectory.Regressed);
      Helpers.check_bool "regression detected" true (Trajectory.has_regression d5))

let compare_missing_added =
  Helpers.test "missing and added metrics never fail the comparison" (fun () ->
      let base = traj [ sec "S" Trajectory.[ metric ~direction:Exact "gone" 1.0 ] ] in
      let cur = traj [ sec "S" Trajectory.[ metric ~direction:Exact "new" 1.0 ] ] in
      let deltas = Trajectory.compare ~threshold_pct:25.0 ~baseline:base ~current:cur in
      Helpers.check_int "two rows" 2 (List.length deltas);
      Helpers.check_bool "no regression" false (Trajectory.has_regression deltas))

let compare_improvement =
  Helpers.test "improvements are reported, not penalized" (fun () ->
      let base = traj [ sec "S" Trajectory.[ metric ~direction:Lower_better "ms" 100.0 ] ] in
      let cur = traj [ sec "S" Trajectory.[ metric ~direction:Lower_better "ms" 30.0 ] ] in
      match Trajectory.compare ~threshold_pct:25.0 ~baseline:base ~current:cur with
      | [ d ] -> Helpers.check_bool "improved" true (d.Trajectory.status = Trajectory.Improved)
      | _ -> Alcotest.fail "expected one delta")

let key_drift =
  Helpers.test "key drift is surfaced field by field" (fun () ->
      let other = { key with Trajectory.snapshot_hash = "h2"; code_version = "v2" } in
      let drift =
        Trajectory.key_drift ~baseline:(traj []) ~current:{ Trajectory.key = other; sections = [] }
      in
      Helpers.check_int "two drifting fields" 2 (List.length drift))

(* -- rm_rf --------------------------------------------------------------- *)

let rm_rf_tree =
  Helpers.test "removes a nested tree and tolerates absence" (fun () ->
      let root =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "hg_test_rmrf_%d" (Unix.getpid ()))
      in
      Unix.mkdir root 0o755;
      Unix.mkdir (Filename.concat root "sub") 0o755;
      let write p = Out_channel.with_open_text p (fun oc -> output_string oc "x") in
      write (Filename.concat root "a");
      write (Filename.concat root "sub/b");
      Unix.symlink "a" (Filename.concat root "link");
      Fsutil.rm_rf root;
      Helpers.check_bool "gone" false (Sys.file_exists root);
      (* second removal is a no-op, not an error *)
      Fsutil.rm_rf root)

(* The checked-in trajectories are the bench's history: parsing one and
   rendering it back must reproduce the file byte for byte. *)
let trajectory_files_golden =
  Helpers.test "checked-in trajectory files re-render byte-identically" (fun () ->
      List.iter
        (fun tag ->
          let path = Printf.sprintf "../BENCH_%s.json" tag in
          let text = In_channel.with_open_bin path In_channel.input_all in
          match Trajectory.of_string text with
          | Ok t -> Helpers.check_string path text (Trajectory.to_string t)
          | Error e -> Alcotest.failf "%s: %s" path e)
        [ "P6"; "P7"; "P8"; "P9"; "P10" ])

let tests =
  [
    json_roundtrip;
    json_accepts_standard;
    json_rejects_garbage;
    percentile_nearest_rank;
    percentile_empty;
    trajectory_roundtrip;
    compare_directions;
    compare_missing_added;
    compare_improvement;
    key_drift;
    rm_rf_tree;
    trajectory_files_golden;
  ]
