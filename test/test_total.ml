(** Totality of the analysis front end: lexing, parsing and rule
    extraction must be total functions over arbitrary byte strings —
    any input, however hostile, yields either a result or a structured
    {!Extract.Extraction_error}, never an uncaught exception. This is
    the serving layer's first line of defence: a poison app must fail
    {e cleanly} so it can be counted, quarantined and refused, not
    crash the process that was auditing it. *)

module Extract = Homeguard_symexec.Extract

(* Run one input through the full pipeline; [Ok ()] covers both
   successful extraction and the structured error. Anything else is a
   totality violation. *)
let classify src =
  match Extract.extract_source ~name:"fuzz" src with
  | _ -> Ok ()
  | exception Extract.Extraction_error _ -> Ok ()
  | exception e -> Error (Printexc.to_string e)

let check_total src =
  match classify src with
  | Ok () -> true
  | Error exn ->
    Printf.eprintf "uncaught exception on %S: %s\n" src exn;
    false

(* Arbitrary bytes: the raw fuzz surface. *)
let arbitrary_bytes =
  QCheck.(string_gen_of_size (Gen.int_range 0 2048) Gen.char)

(* Groovy-flavoured fragments: random splices of tokens the lexer and
   parser actually branch on, which reach far deeper than raw bytes. *)
let groovy_fragment =
  let tokens =
    [|
      "definition"; "preferences"; "section"; "input"; "def "; "if"; "else";
      "subscribe"; "schedule"; "runIn"; "{"; "}"; "("; ")"; "["; "]"; ":";
      ";"; ","; "."; "=="; "!="; "="; "&&"; "||"; "!"; "+"; "-"; "*"; "/";
      "\""; "\\"; "'"; "$"; "\n"; " "; "\t"; "0"; "42"; "3.14"; "true";
      "false"; "null"; "it"; "app"; "evt.value"; "location.mode"; "état";
      "\xff"; "\x00"; "/* "; "*/"; "//"; "name:"; "title:"; "capability.switch";
    |]
  in
  QCheck.Gen.(
    list_size (int_range 0 200) (oneofa tokens) >|= String.concat "")
  |> QCheck.make ~print:(Printf.sprintf "%S")

let prop_raw_bytes_total =
  QCheck.Test.make ~count:500 ~name:"extraction is total on arbitrary bytes"
    arbitrary_bytes check_total

let prop_fragments_total =
  QCheck.Test.make ~count:500 ~name:"extraction is total on Groovy-token splices"
    groovy_fragment check_total

(* Mutated real sources: flip, delete and duplicate bytes of corpus
   apps — inputs that are almost valid stress the deepest paths. *)
let mutate rand src =
  if String.length src = 0 then src
  else
    let b = Bytes.of_string src in
    let n = 1 + Random.State.int rand 8 in
    for _ = 1 to n do
      let i = Random.State.int rand (Bytes.length b) in
      match Random.State.int rand 3 with
      | 0 -> Bytes.set b i (Char.chr (Random.State.int rand 256))
      | 1 -> Bytes.set b i ' '
      | _ -> Bytes.set b i '{'
    done;
    Bytes.to_string b

let mutated_corpus_total =
  let sources =
    List.map (fun e -> e.Homeguard_corpus.App_entry.source) Homeguard_corpus.Corpus.all
  in
  Alcotest.test_case "extraction is total on mutated corpus sources" `Quick (fun () ->
      let rand = Random.State.make [| 0x70745 |] in
      let violations = ref 0 in
      List.iter
        (fun src ->
          for _ = 1 to 5 do
            if not (check_total (mutate rand src)) then incr violations
          done)
        sources;
      Alcotest.(check int) "no uncaught exceptions" 0 !violations)

(* -- the JSON codec ---------------------------------------------------------- *)

(* Journal payloads and rule files are untrusted once they are on disk:
   the parser returns [Error], and the two decoders built on it raise
   their own [Decode_error] and nothing else. *)
module Json = Homeguard_rules.Json
module Rule_json = Homeguard_rules.Rule_json
module Event = Homeguard_store.Event

let decoders_total src =
  let only_decode_error name f =
    match f src with
    | _ -> true
    | exception e ->
      Printf.eprintf "%s raised on %S: %s\n" name src (Printexc.to_string e);
      false
  in
  let rule_file s = try ignore (Rule_json.of_string s) with Rule_json.Decode_error _ -> () in
  let event s = try ignore (Event.of_string s) with Event.Decode_error _ -> () in
  only_decode_error "Json.of_string" Json.of_string
  && only_decode_error "Rule_json.of_string" rule_file
  && only_decode_error "Event.of_string" event

let json_edge_cases_total =
  Alcotest.test_case "JSON decoders raise only Decode_error on malformed numbers and escapes"
    `Quick (fun () ->
      List.iter
        (fun src ->
          Alcotest.(check bool) src true (decoders_total src);
          Alcotest.(check bool) (src ^ " is rejected") true (Result.is_error (Json.of_string src)))
        [ "-"; "1e"; "--1"; {|"\u12|}; {|"\uzzzz"|}; {|{"watermark":1e}|} ];
      (* too large for an int: parsed as a float, which no event field is *)
      Alcotest.(check bool) "big number" true (decoders_total "99999999999999999999");
      Alcotest.(check bool) "big watermark" true
        (decoders_total {|{"watermark":99999999999999999999}|});
      (* nesting is bounded at 1000 levels, not by the stack *)
      let nested n = String.make n '[' ^ String.make n ']' in
      Alcotest.(check bool) "1000 levels parse" true (Result.is_ok (Json.of_string (nested 1000)));
      Alcotest.(check bool) "1001 levels are rejected" true
        (Result.is_error (Json.of_string (nested 1001)));
      List.iter
        (fun src ->
          Alcotest.(check bool) "deep nesting" true (decoders_total src);
          Alcotest.(check bool) "deep nesting is rejected" true (Result.is_error (Json.of_string src)))
        [
          String.make 100_000 '[';
          nested 100_000;
          String.concat "" (List.init 100_000 (fun _ -> {|{"watermark":|}));
        ])

let prop_json_raw_bytes_total =
  QCheck.Test.make ~count:1000 ~name:"JSON decoding is total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 256) Gen.char)
    decoders_total

let corpus_payloads =
  lazy
    (List.map
       (fun (e : Homeguard_corpus.App_entry.t) ->
         Rule_json.to_string
           (Helpers.extract ~name:e.Homeguard_corpus.App_entry.name
              e.Homeguard_corpus.App_entry.source))
       Homeguard_corpus.Corpus.all
    @ List.map Event.to_string Test_json.golden_events)

let mutated_payloads_total =
  Alcotest.test_case "JSON decoding is total on mutated rule files and events" `Quick (fun () ->
      let rand = Random.State.make [| 0x150d |] in
      let violations = ref 0 in
      List.iter
        (fun src ->
          for _ = 1 to 10 do
            if not (decoders_total (mutate rand src)) then incr violations
          done)
        (Lazy.force corpus_payloads);
      Alcotest.(check int) "no uncaught exceptions" 0 !violations)

(* Any value the printer can emit, floats and every byte included. *)
let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let bytes = string_size ~gen:char (int_bound 6) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite;
               map (fun s -> Json.Str s) bytes;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 3))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair bytes (self (n / 3)))));
             ])

let prop_print_parse_fixpoint =
  QCheck.Test.make ~count:1000 ~name:"JSON printer output is a print/parse fixpoint"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with Ok v' -> Json.to_string v' = s | Error _ -> false)

let tests =
  [
    QCheck_alcotest.to_alcotest ~long:false prop_raw_bytes_total;
    QCheck_alcotest.to_alcotest ~long:false prop_fragments_total;
    mutated_corpus_total;
    json_edge_cases_total;
    QCheck_alcotest.to_alcotest ~long:false prop_json_raw_bytes_total;
    mutated_payloads_total;
    QCheck_alcotest.to_alcotest ~long:false prop_print_parse_fixpoint;
  ]
