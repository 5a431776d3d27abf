(** Interval-set domain algebra: unit tests and QCheck laws. *)

open Homeguard_solver

let dom = Alcotest.testable (fun fmt d -> Format.fprintf fmt "%s" (Domain.to_string d)) Domain.equal

let interval_normalizes =
  Helpers.test "adjacent intervals merge" (fun () ->
      Alcotest.check dom "merge"
        (Domain.interval 1 10)
        (Domain.union (Domain.interval 1 5) (Domain.interval 6 10)))

let inter_basic =
  Helpers.test "intersection" (fun () ->
      Alcotest.check dom "inter"
        (Domain.interval 3 5)
        (Domain.inter (Domain.interval 1 5) (Domain.interval 3 9)))

let inter_disjoint =
  Helpers.test "disjoint intersection is empty" (fun () ->
      Helpers.check_bool "empty" true
        (Domain.is_empty (Domain.inter (Domain.interval 1 2) (Domain.interval 5 6))))

let remove_splits =
  Helpers.test "removing an interior value splits the interval" (fun () ->
      let d = Domain.remove_int 5 (Domain.interval 1 10) in
      Helpers.check_int "size" 9 (Domain.size d);
      Helpers.check_bool "5 gone" false (Domain.mem_int 5 d);
      Helpers.check_bool "4 stays" true (Domain.mem_int 4 d))

let at_most_at_least =
  Helpers.test "at_most / at_least clamp" (fun () ->
      let d = Domain.interval 0 100 in
      Alcotest.check dom "at_most" (Domain.interval 0 10) (Domain.at_most 10 d);
      Alcotest.check dom "at_least" (Domain.interval 90 100) (Domain.at_least 90 d))

let enum_ops =
  Helpers.test "enum domains" (fun () ->
      let d = Domain.enums [ "on"; "off" ] in
      Helpers.check_bool "mem" true (Domain.mem_str "on" d);
      let d' = Domain.remove_str "on" d in
      Helpers.check_bool "removed" false (Domain.mem_str "on" d');
      Helpers.check_int "size" 1 (Domain.size d'))

let enums_dedup =
  Helpers.test "enum constructor deduplicates" (fun () ->
      Helpers.check_int "size" 2 (Domain.size (Domain.enums [ "a"; "b"; "a" ])))

let type_clash =
  Helpers.test "int/enum intersection raises" (fun () ->
      match Domain.inter (Domain.interval 0 1) (Domain.enums [ "x" ]) with
      | exception Domain.Type_clash -> ()
      | _ -> Alcotest.fail "expected Type_clash")

let split_preserves =
  Helpers.test "split partitions the domain" (fun () ->
      let d = Domain.interval 0 9 in
      let l, r = Domain.split d in
      Helpers.check_int "sizes" 10 (Domain.size l + Domain.size r);
      Helpers.check_bool "disjoint" true (Domain.is_empty (Domain.inter l r)))

(* -- QCheck laws ----------------------------------------------------------- *)

let gen_iset =
  let open QCheck2.Gen in
  let* pairs = list_size (int_range 0 4) (pair (int_range (-50) 50) (int_range 0 10)) in
  return
    (List.fold_left
       (fun acc (lo, len) -> Domain.union acc (Domain.interval lo (lo + len)))
       (Domain.Ints []) pairs)

let law_inter_comm =
  Helpers.qtest "intersection commutes" (QCheck2.Gen.pair gen_iset gen_iset) (fun (a, b) ->
      Domain.equal (Domain.inter a b) (Domain.inter b a))

let law_union_assoc =
  Helpers.qtest "union associates"
    (QCheck2.Gen.triple gen_iset gen_iset gen_iset)
    (fun (a, b, c) ->
      Domain.equal (Domain.union a (Domain.union b c)) (Domain.union (Domain.union a b) c))

let law_inter_subset =
  Helpers.qtest "intersection size bounded" (QCheck2.Gen.pair gen_iset gen_iset) (fun (a, b) ->
      let i = Domain.inter a b in
      Domain.size i <= min (Domain.size a) (Domain.size b))

let law_membership =
  Helpers.qtest "membership agrees with values"
    (QCheck2.Gen.pair gen_iset (QCheck2.Gen.int_range (-60) 60))
    (fun (d, n) ->
      Domain.mem_int n d = List.mem (Domain.Int n) (Domain.values d))

let law_split =
  Helpers.qtest "split halves are non-empty and partition" gen_iset (fun d ->
      if Domain.size d < 2 then true
      else
        let l, r = Domain.split d in
        (not (Domain.is_empty l))
        && (not (Domain.is_empty r))
        && Domain.size l + Domain.size r = Domain.size d
        && Domain.is_empty (Domain.inter l r))

let law_remove =
  Helpers.qtest "remove_int removes exactly one value"
    (QCheck2.Gen.pair gen_iset (QCheck2.Gen.int_range (-60) 60))
    (fun (d, n) ->
      let d' = Domain.remove_int n d in
      (not (Domain.mem_int n d'))
      && Domain.size d' = Domain.size d - (if Domain.mem_int n d then 1 else 0))

let tests =
  [
    interval_normalizes;
    inter_basic;
    inter_disjoint;
    remove_splits;
    at_most_at_least;
    enum_ops;
    enums_dedup;
    type_clash;
    split_preserves;
    law_inter_comm;
    law_union_assoc;
    law_inter_subset;
    law_membership;
    law_split;
    law_remove;
  ]
