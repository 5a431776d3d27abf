(** The bench support library: JSON round-trips, nearest-rank
    percentiles and the in-process recursive remove. *)

module Json = Homeguard_bench.Json
module Stats = Homeguard_bench.Stats
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
      Helpers.check_bool "percentile" true (Stats.percentile 0.95 [] = None))

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

let tests =
  [
    json_roundtrip;
    json_accepts_standard;
    json_rejects_garbage;
    percentile_nearest_rank;
    percentile_empty;
    rm_rf_tree;
  ]
