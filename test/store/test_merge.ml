(** Differential test of the replica merge: {!Rjournal.merge_records}
    against the full-table shortest-common-supersequence fold it
    replaced, on generated replica sets (identical, truncated, with lost
    interior frames, duplicate payloads, damage on several replicas,
    three replicas, empty and missing replicas), plus an allocation
    guard for the identical-replica case. *)

module Rjournal = Homeguard_store.Rjournal

let test name f = Alcotest.test_case name `Quick f

(* The reference: the LCS table over the whole of both lists, then the
   backtrack (equal heads first, ties toward [a]). *)
let reference_scs (a : string list) (b : string list) =
  match (a, b) with
  | [], ys -> ys
  | xs, [] -> xs
  | _ ->
    let xa = Array.of_list a and xb = Array.of_list b in
    let n = Array.length xa and m = Array.length xb in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if xa.(i) = xb.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let out = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      if xa.(!i) = xb.(!j) then begin
        out := xa.(!i) :: !out;
        incr i;
        incr j
      end
      else if lcs.(!i + 1).(!j) >= lcs.(!i).(!j + 1) then begin
        out := xa.(!i) :: !out;
        incr i
      end
      else begin
        out := xb.(!j) :: !out;
        incr j
      end
    done;
    while !i < n do
      out := xa.(!i) :: !out;
      incr i
    done;
    while !j < m do
      out := xb.(!j) :: !out;
      incr j
    done;
    List.rev !out

let reference_merge = function
  | [] -> []
  | first :: rest -> List.fold_left reference_scs first rest

(* -- generators ----------------------------------------------------------------- *)

(* A true append history. A small alphabet makes duplicate payloads
   common, as repeated config deliveries and re-installs are. *)
let history rs ~alphabet =
  List.init (Random.State.int rs 60) (fun _ ->
      Printf.sprintf "rec-%d" (Random.State.int rs alphabet))

let take k l = List.filteri (fun i _ -> i < k) l

(* a replica that lost its last frames (crash between replica writes) *)
let lost_tail rs h = take (Random.State.int rs (List.length h + 1)) h

(* a replica whose damaged frames were quarantined: each frame dropped
   with probability 1/[rate] *)
let lost_interior rs ~rate h = List.filter (fun _ -> Random.State.int rs rate <> 0) h

(* a replica damaged at one point: a run of frames lost there, and
   perhaps the tail too *)
let damaged rs h =
  let n = List.length h in
  let at = Random.State.int rs (n + 1) in
  let len = 1 + Random.State.int rs 4 in
  let h = List.filteri (fun i _ -> i < at || i >= at + len) h in
  if Random.State.bool rs then lost_tail rs h else h

let is_subsequence sub l =
  let rec go s l =
    match (s, l) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: l' -> if String.equal x y then go s' l' else go s l'
  in
  go sub l

let show rs = String.concat " | " (List.map (String.concat ",") rs)

let agree name replicas =
  let got = Rjournal.merge_records replicas in
  let want = reference_merge replicas in
  if got <> want then
    Alcotest.failf "%s: merge differs from the reference on [%s]" name (show replicas);
  List.iter
    (fun r ->
      if not (is_subsequence r got) then
        Alcotest.failf "%s: a replica is not kept by the merge [%s]" name (show replicas))
    replicas

let cases = 400

let campaign name gen =
  test name (fun () ->
      let rs = Random.State.make [| 13; Hashtbl.hash name |] in
      for _ = 1 to cases do
        agree name (gen rs)
      done)

(* -- the differential campaigns --------------------------------------------------- *)

let identical =
  campaign "identical replicas" (fun rs ->
      let h = history rs ~alphabet:40 in
      [ h; List.map (fun s -> s ^ "") h ])

let tail =
  campaign "one replica lost its tail, either order" (fun rs ->
      let h = history rs ~alphabet:40 in
      let t = lost_tail rs h in
      if Random.State.bool rs then [ h; t ] else [ t; h ])

let interior =
  campaign "lost interior frames" (fun rs ->
      let h = history rs ~alphabet:40 in
      [ lost_interior rs ~rate:5 h; h ])

let duplicates =
  campaign "duplicate payloads on a three-letter alphabet" (fun rs ->
      let h = history rs ~alphabet:3 in
      [ lost_interior rs ~rate:3 h; lost_interior rs ~rate:3 h ])

let both_damaged =
  campaign "both replicas damaged at different points" (fun rs ->
      let h = history rs ~alphabet:(2 + Random.State.int rs 30) in
      [ damaged rs h; damaged rs h ])

let three =
  campaign "three replicas" (fun rs ->
      let h = history rs ~alphabet:(2 + Random.State.int rs 30) in
      let pick () =
        match Random.State.int rs 4 with
        | 0 -> h
        | 1 -> lost_tail rs h
        | 2 -> lost_interior rs ~rate:4 h
        | _ -> damaged rs h
      in
      [ pick (); pick (); pick () ])

let empty_or_missing =
  campaign "empty and missing replicas" (fun rs ->
      let h = history rs ~alphabet:20 in
      match Random.State.int rs 5 with
      | 0 -> []
      | 1 -> [ h; [] ]
      | 2 -> [ []; h ]
      | 3 -> [ []; damaged rs h; [] ]
      | _ -> [ [] ])

let long_divergence =
  test "a long shared prefix, then divergent remainders" (fun () ->
      let rs = Random.State.make [| 7 |] in
      for _ = 1 to 20 do
        let prefix = List.init 500 (Printf.sprintf "p%d") in
        let h = prefix @ history rs ~alphabet:10 in
        agree "long prefix" [ damaged rs h; damaged rs h ]
      done)

(* -- allocation guard -------------------------------------------------------------- *)

let identical_merge_is_linear =
  test "two identical 20,000-record replicas merge without a table" (fun () ->
      let n = 20_000 in
      let a = List.init n (Printf.sprintf "record-%06d") in
      let b = List.init n (Printf.sprintf "record-%06d") in
      let before = Gc.allocated_bytes () in
      let merged = Rjournal.merge_records [ a; b ] in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "merged stream is the replica" true (merged = a);
      if allocated >= 10e6 then
        Alcotest.failf "merging identical replicas allocated %.0f bytes" allocated)

let tests =
  [
    identical;
    tail;
    interior;
    duplicates;
    both_damaged;
    three;
    empty_or_missing;
    long_divergence;
    identical_merge_is_linear;
  ]
