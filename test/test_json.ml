(** JSON printer/parser and rule-file serialization tests. *)

module Json = Homeguard_rules.Json
module Rule_json = Homeguard_rules.Rule_json
module Rule = Homeguard_rules.Rule
open Helpers

let json = Alcotest.testable (fun fmt j -> Format.fprintf fmt "%s" (Json.to_string j)) ( = )

let parse s = match Json.of_string s with Ok j -> j | Error e -> Alcotest.failf "%S: %s" s e

let print_basic =
  test "printing basics" (fun () ->
      check_string "obj" {|{"a":1,"b":[true,null],"c":"x"}|}
        (Json.to_string
           (Json.Obj
              [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]);
                ("c", Json.Str "x");
              ])))

let escape_string =
  test "string escaping" (fun () ->
      check_string "escaped" {|"a\"b\\c\nd"|} (Json.to_string (Json.Str "a\"b\\c\nd")))

let parse_basic =
  test "parsing basics" (fun () ->
      Alcotest.check json "roundtrip"
        (Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "s" ]) ])
        (parse {| {"k": [1, 2.5, "s"]} |}))

let parse_negative =
  test "negative numbers" (fun () ->
      Alcotest.check json "neg" (Json.Int (-42)) (parse "-42"))

let parse_errors =
  test "malformed input raises" (fun () ->
      List.iter
        (fun src ->
          match Json.of_string src with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "expected parse error on %s" src)
        [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ])

let gen_json =
  let open QCheck2.Gen in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) (int_range (-1000) 1000);
               map (fun s -> Json.Str s) (string_size ~gen:(char_range 'a' 'z') (int_bound 8));
             ]
         in
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Json.List l) (list_size (int_bound 3) (self (n / 2)));
               map
                 (fun kvs ->
                   (* keys must be distinct for roundtrip equality *)
                   Json.Obj (List.mapi (fun i (k, v) -> (Printf.sprintf "%s%d" k i, v)) kvs))
                 (list_size (int_bound 3)
                    (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) (self (n / 2))));
             ]))

let roundtrip_prop =
  qtest ~count:300 "JSON print/parse round-trip" gen_json (fun j ->
      Json.of_string (Json.to_string j) = Ok j)

let rule_file_roundtrip =
  test "rule files round-trip for every corpus app" (fun () ->
      List.iter
        (fun (e : Homeguard_corpus.App_entry.t) ->
          let app = extract ~name:e.Homeguard_corpus.App_entry.name e.Homeguard_corpus.App_entry.source in
          let s = Rule_json.to_string app in
          let app' = Rule_json.of_string s in
          if app' <> app then Alcotest.failf "roundtrip failed for %s" app.Rule.name)
        Homeguard_corpus.Corpus.all)

let rule_file_string_fixpoint =
  test "serialized rule files are a fixpoint of parse/print" (fun () ->
      (* the journal detects duplicate installs by comparing serialized
         rule files byte-for-byte, so to_string(of_string s) = s must
         hold for every serialized corpus app *)
      List.iter
        (fun (e : Homeguard_corpus.App_entry.t) ->
          let app =
            extract ~name:e.Homeguard_corpus.App_entry.name e.Homeguard_corpus.App_entry.source
          in
          let s = Rule_json.to_string app in
          let s' = Rule_json.to_string (Rule_json.of_string s) in
          if s' <> s then Alcotest.failf "string fixpoint failed for %s" app.Rule.name)
        Homeguard_corpus.Corpus.all)

let rule_file_size_reasonable =
  test "rule files are KB-scale (paper: ~6.2KB per app)" (fun () ->
      let sizes =
        List.map
          (fun (e : Homeguard_corpus.App_entry.t) ->
            String.length
              (Rule_json.to_string
                 (extract ~name:e.Homeguard_corpus.App_entry.name
                    e.Homeguard_corpus.App_entry.source)))
          Homeguard_corpus.Corpus.rule_defining
      in
      let avg = List.fold_left ( + ) 0 sizes / List.length sizes in
      check_bool "average between 200B and 20KB" true (avg > 200 && avg < 20_000))

let decode_error =
  test "rule decoding rejects foreign JSON" (fun () ->
      match Rule_json.of_string {|{"not": "a rule file"}|} with
      | exception Rule_json.Decode_error _ -> ()
      | _ -> Alcotest.fail "expected Decode_error")

(* The bytes of rule files and journal payloads are what the journal
   compares and replays. This
   digest was taken before the rules-side codec was replaced by the
   shared one; a change to any escape, separator or field order moves it. *)
module Event = Homeguard_store.Event
module Policy = Homeguard_handling.Policy

let golden_events =
  let tricky = "q\"b\\s/n\nt\tr\rc\001\031d\127é" in
  [
    Event.Install (extract_corpus "ComfortTV");
    Event.Uninstall tricky;
    Event.Config { seq = Some 7; uri = "homeguard://cfg?a=1&b=" ^ tricky };
    Event.Config { seq = None; uri = "" };
    Event.Decision { threat_id = "AR:a/r1->b/r2"; decision = Policy.Allow };
    Event.Decision { threat_id = tricky; decision = Policy.Prioritize { winner = "w" } };
    Event.Decision { threat_id = "GC:x"; decision = Policy.Block { rule = tricky } };
    Event.Decision { threat_id = "CT:y"; decision = Policy.Break_chain { hop_budget = -3 } };
    Event.Decision { threat_id = "DC:z"; decision = Policy.Confirm };
    Event.Watermark 0;
    Event.Watermark max_int;
    Event.Quarantine { app = "Poison"; reason = tricky };
    Event.Unquarantine "Poison";
    Event.Epoch min_int;
  ]

let golden_bytes =
  test "rule-file and event bytes match the pre-swap digest" (fun () ->
      let buf = Buffer.create (1 lsl 20) in
      List.iter
        (fun (e : Homeguard_corpus.App_entry.t) ->
          Buffer.add_string buf
            (Rule_json.to_string
               (extract ~name:e.Homeguard_corpus.App_entry.name e.Homeguard_corpus.App_entry.source));
          Buffer.add_char buf '\n')
        Homeguard_corpus.Corpus.all;
      List.iter (fun e -> Buffer.add_string buf (Event.to_string e ^ "\n")) golden_events;
      check_string "md5" "379b2ed2f5ebd66f3b01acf0fa2d24e7" (Digest.to_hex (Digest.string (Buffer.contents buf))))

let tests =
  [
    print_basic;
    escape_string;
    parse_basic;
    parse_negative;
    parse_errors;
    roundtrip_prop;
    rule_file_roundtrip;
    rule_file_string_fixpoint;
    rule_file_size_reasonable;
    decode_error;
    golden_bytes;
  ]

(* appended: randomized rule-file round-trips beyond the corpus *)
module Formula = Homeguard_solver.Formula
module Term = Homeguard_solver.Term

let gen_term =
  let open QCheck2.Gen in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> Term.Int i) (int_range (-500) 500);
               map (fun s -> Term.Str s) (oneofl [ "on"; "off"; "Home"; "rainy" ]);
               map (fun v -> Term.Var v) (oneofl [ "a.b"; "x"; "location.mode" ]);
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2 (fun a b -> Term.Add (a, b)) sub sub;
               map2 (fun a b -> Term.Sub (a, b)) sub sub;
               map (fun a -> Term.Neg a) sub;
             ]))

let gen_formula_small =
  let open QCheck2.Gen in
  let atom =
    let* cmp = oneofl Formula.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    let* a = gen_term and* b = gen_term in
    return (Formula.Atom (cmp, a, b))
  in
  let rec gen n =
    if n <= 0 then atom
    else
      oneof
        [
          atom;
          return Formula.True;
          map (fun fs -> Formula.And fs) (list_size (int_range 1 3) (gen (n / 2)));
          map (fun fs -> Formula.Or fs) (list_size (int_range 1 3) (gen (n / 2)));
          map (fun f -> Formula.Not f) (gen (n / 2));
        ]
  in
  sized (fun n -> gen (min n 6))

let gen_rule =
  let open QCheck2.Gen in
  let* trig_kind = bool in
  let* constraint_ = gen_formula_small in
  let* predicate = gen_formula_small in
  let* data = list_size (int_bound 3) (pair (oneofl [ "t"; "u"; "v" ]) gen_term) in
  let* when_ = int_bound 900 in
  let* cmd = oneofl [ "on"; "off"; "lock"; "setLevel" ] in
  let* params = list_size (int_bound 2) gen_term in
  let trigger =
    if trig_kind then
      Rule.Event { subject = Rule.Device "dev1"; attribute = "switch"; constraint_ }
    else Rule.Scheduled { at_minutes = Some 420; period_seconds = None }
  in
  return
    {
      Rule.app_name = "Gen";
      rule_id = "Gen#1";
      trigger;
      condition = { Rule.data; predicate };
      actions =
        [
          { Rule.target = Rule.Act_device "dev1"; command = cmd; params; when_; period = 0;
            action_data = [] };
        ];
    }

let random_rule_roundtrip =
  Helpers.qtest ~count:300 "random rules survive JSON round-trips" gen_rule (fun r ->
      Rule_json.rule_of_json (Rule_json.rule_to_json r) = r)

let random_rule_interpreter_total =
  Helpers.qtest ~count:300 "the interpreter renders random rules without raising" gen_rule
    (fun r ->
      String.length (Homeguard_frontend.Rule_interpreter.describe r) > 0)

let tests = tests @ [ random_rule_roundtrip; random_rule_interpreter_total ]
