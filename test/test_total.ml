(** Totality of the analysis front end: lexing, parsing and rule
    extraction must be total functions over arbitrary byte strings —
    any input, however hostile, yields either a result or a structured
    {!Extract.Extraction_error}, never an uncaught exception. This is
    the serving layer's first line of defence: a poison app must fail
    {e cleanly} so it can be counted, quarantined and refused, not
    crash the process that was auditing it. The decoders of what the
    store reads back from disk — JSON payloads and journal frames — are
    held to the same law, and so are configuration URIs, which arrive
    from instrumented apps. *)

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

(* -- journal frames ------------------------------------------------------------ *)

(* Journal images are untrusted once they are on disk: a scan of any
   bytes returns, and a clean stream of frames scans back to exactly
   what was framed. *)
module Journal = Homeguard_store.Journal

let scan_total img =
  match Journal.scan_string img with
  | _ -> true
  | exception e ->
    Printf.eprintf "scan_string raised on %S: %s\n" img (Printexc.to_string e);
    false

(* Payloads hold any byte, and often the resynchronization markers a
   scan looks for after damage. *)
let gen_payload =
  QCheck.Gen.(
    frequency
      [
        (3, string_size ~gen:char (int_bound 40));
        ( 2,
          map3
            (fun a m b -> a ^ m ^ b)
            (string_size ~gen:char (int_bound 8))
            (oneofl [ "\nHGJ1 "; "\nHGJ2 "; "HGJ1 "; "\nHGJ2 00000001 "; "\n" ])
            (string_size ~gen:char (int_bound 8)) );
      ])

(* A clean stream: payloads at one epoch, 0 (the legacy HGJ1 form) or
   positive (HGJ2). *)
let gen_stream =
  QCheck.Gen.(
    pair (list_size (int_bound 12) gen_payload)
      (frequency [ (1, return 0); (2, int_range 1 0x7fffffff) ]))

let print_stream (payloads, epoch) =
  Printf.sprintf "epoch %d: [%s]" epoch
    (String.concat "; " (List.map (Printf.sprintf "%S") payloads))

let image (payloads, epoch) =
  String.concat "" (List.map (Journal.frame_epoch ~epoch) payloads)

let prop_journal_bytes_total =
  QCheck.Test.make ~count:1000 ~name:"journal scanning is total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    scan_total

(* Flipped, inserted and truncated bytes of a clean stream: the frame
   headers a scan half-trusts are where raising would hide. *)
let prop_journal_damage_total =
  let gen =
    QCheck.Gen.(
      gen_stream >>= fun stream ->
      let img = image stream in
      list_size (int_range 1 6)
        (triple (int_bound 2) (int_bound (max 0 (String.length img))) char)
      >|= fun edits ->
      List.fold_left
        (fun img (kind, at, c) ->
          let at = min at (String.length img) in
          match kind with
          | 0 when at < String.length img ->
            String.mapi (fun i x -> if i = at then Char.chr (Char.code x lxor Char.code c) else x) img
          | 1 -> String.sub img 0 at ^ String.make 1 c ^ String.sub img at (String.length img - at)
          | _ -> String.sub img 0 at)
        img edits)
  in
  QCheck.Test.make ~count:1000 ~name:"journal scanning is total on damaged frame streams"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    scan_total

let prop_journal_round_trip =
  QCheck.Test.make ~count:1000 ~name:"a clean frame stream scans back to its payloads"
    (QCheck.make ~print:print_stream gen_stream)
    (fun ((payloads, epoch) as stream) ->
      let sc = Journal.scan_string (image stream) in
      sc.Journal.records = payloads
      && sc.Journal.damage = []
      && sc.Journal.first_damage_index = None
      && List.for_all (( = ) epoch) sc.Journal.epochs
      && sc.Journal.max_epoch = (if payloads = [] then 0 else epoch)
      && sc.Journal.epoch_regressions = 0)

let prop_journal_spans_reframe =
  QCheck.Test.make ~count:1000 ~name:"each scanned span re-frames to its own bytes"
    (QCheck.make ~print:print_stream gen_stream)
    (fun stream ->
      let img = image stream in
      let sc = Journal.scan_string img in
      List.length sc.Journal.spans = List.length sc.Journal.records
      && List.for_all2
           (fun (record, epoch) (off, len) ->
             String.sub img off len = Journal.frame_epoch ~epoch record)
           (List.combine sc.Journal.records sc.Journal.epochs)
           sc.Journal.spans)

(* -- configuration URIs ---------------------------------------------------------- *)

(* Configuration URIs arrive from instrumented apps over SMS or HTTP, so
   [Config_uri.decode] must return a value or raise [Malformed] on any
   bytes, and every value it returns must survive [encode]: decoding
   the encoded URI gives the value back. *)
module Config_uri = Homeguard_config.Config_uri

let config_uri_law s =
  match Config_uri.decode s with
  | v -> (
    match Config_uri.decode (Config_uri.encode v) with
    | v' when v' = v -> true
    | _ ->
      Printf.eprintf "Config_uri: decode (encode v) <> v for %S\n" s;
      false
    | exception e ->
      Printf.eprintf "Config_uri: re-decoding %S raised %s\n" s (Printexc.to_string e);
      false)
  | exception Config_uri.Malformed _ -> true
  | exception e ->
    Printf.eprintf "Config_uri.decode raised on %S: %s\n" s (Printexc.to_string e);
    false

(* Well-formed URIs: every configuration of a set of synthetic homes. *)
let valid_uris =
  lazy
    (List.concat_map
       (fun h -> h.Homeguard_corpus.Synth.configs)
       (Homeguard_corpus.Corpus.synth ~seed:11 ~n_homes:60))

let prop_config_uri_bytes =
  QCheck.Test.make ~count:1000 ~name:"config URI decoding is total on arbitrary bytes"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          pair bool (string_size ~gen:char (int_range 0 256)) >|= fun (prefixed, s) ->
          if prefixed then "http://my.com/" ^ s else s))
    config_uri_law

let prop_config_uri_splices =
  let tokens =
    [|
      "http://my.com/"; "http://my.com"; "http://"; "appname"; "appname:"; ":"; "/"; "//";
      "::"; "tv1"; "threshold1"; "30"; "-5"; "0x1f"; "on"; ""; " "; "%2F"; "\x00"; "\xff";
      "état"; "0123456789abcdef0123456789abcdef"; "0123456789ABCDEF0123456789ABCDEF";
      "0123456789abcdef";
    |]
  in
  QCheck.Test.make ~count:1000 ~name:"config URI decoding is total on token splices"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(list_size (int_range 0 24) (oneofa tokens) >|= String.concat ""))
    config_uri_law

(* [k] edits of [s]: each a byte replaced (by any byte or one of
   [seps]), inserted or deleted. *)
let rec byte_edits ~seps k s =
  let edit s =
    QCheck.Gen.(
      let n = String.length s in
      int_range 0 n >>= fun i ->
      oneof [ char; oneofl seps ] >>= fun c ->
      int_range 0 2 >|= function
      | 0 when i < n -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ -> s)
  in
  if k = 0 then QCheck.Gen.return s else QCheck.Gen.(edit s >>= byte_edits ~seps (k - 1))

(* A valid URI with one to eight edits. *)
let prop_config_uri_mutations =
  QCheck.Test.make ~count:2000 ~name:"config URI decoding is total on mutated valid URIs"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          oneofl (Lazy.force valid_uris) >>= fun uri ->
          int_range 1 8 >>= fun k -> byte_edits ~seps:[ '/'; ':'; 'a'; '0' ] k uri))
    config_uri_law

let valid_uris_round_trip =
  Alcotest.test_case "every synthetic home's config URI decodes and round-trips" `Quick (fun () ->
      let uris = Lazy.force valid_uris in
      Alcotest.(check bool) "some URIs" true (uris <> []);
      List.iter
        (fun uri ->
          match Config_uri.decode uri with
          | _ -> Alcotest.(check bool) uri true (config_uri_law uri)
          | exception Config_uri.Malformed m -> Alcotest.failf "%S: %s" uri m)
        uris)

(* -- IFTTT templates ------------------------------------------------------------ *)

(* Applet text is crawled from recipe pages, so [Ifttt.parse] and
   [Ifttt.parse_recipes] must return a value or raise [Parse_error] on
   any bytes. *)
module Ifttt = Homeguard_ifttt.Ifttt

let ifttt_law s =
  let only_parse_error name f =
    match f () with
    | () -> true
    | exception Ifttt.Parse_error _ -> true
    | exception e ->
      Printf.eprintf "%s raised on %S: %s\n" name s (Printexc.to_string e);
      false
  in
  only_parse_error "Ifttt.parse" (fun () -> ignore (Ifttt.parse s))
  && only_parse_error "Ifttt.parse_recipes" (fun () ->
         ignore (Ifttt.parse_recipes ~name:"fuzz" s))

(* Applets of every form the grammar has, and a recipe file of them. *)
let valid_applets =
  let applets =
    [
      "IF porch.motion IS active THEN porchLight DO on";
      "IF door.contact IS open WHILE lux.illuminance IS 10 THEN hallLight DO on";
      "IF a.temperature IS 30 WHILE b.switch IS on WHILE c.mode IS Home THEN fan DO off";
      "IF everyone.presence IS not_present THEN MODE Away";
      "EVERY DAY AT 07:30 THEN coffeeMaker DO on";
      "EVERY DAY AT 21:00 THEN bedroomDimmer DO setLevel WITH 20";
      "every day at 2024-01-01T06:05:00 then lamp do on";
    ]
  in
  String.concat "\n" ("# recipes" :: applets @ [ "  "; "# end" ]) :: applets

let prop_ifttt_bytes =
  QCheck.Test.make ~count:1000 ~name:"IFTTT parsing is total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 256) Gen.char)
    ifttt_law

let prop_ifttt_splices =
  let tokens =
    [|
      "IF"; "if"; "EVERY"; "DAY"; "AT"; "THEN"; "then"; "DO"; "WITH"; "WHILE"; "IS"; "MODE";
      "porch.motion"; "porch."; ".motion"; "."; "a.b.c"; "active"; "on"; "setLevel"; "20";
      "-1"; "07:30"; "24:00"; "7:"; ":"; ":5"; "T"; "T12:3"; "2024-01-01T06:05"; "Away";
      " "; "  "; "\n"; "\t"; "#"; "\x00"; "\xff"; "état";
    |]
  in
  QCheck.Test.make ~count:1000 ~name:"IFTTT parsing is total on token splices"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(list_size (int_range 0 24) (oneofa tokens) >|= String.concat ""))
    ifttt_law

(* A valid applet or recipe file with one to eight edits. *)
let prop_ifttt_mutations =
  QCheck.Test.make ~count:2000 ~name:"IFTTT parsing is total on mutated valid applets"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(
          oneofl valid_applets >>= fun applet ->
          int_range 1 8 >>= fun k -> byte_edits ~seps:[ ' '; '.'; ':'; '\n'; '#' ] k applet))
    ifttt_law

let valid_applets_parse =
  Alcotest.test_case "every valid applet parses" `Quick (fun () ->
      List.iter
        (fun s ->
          match Ifttt.parse_recipes ~name:"valid" s with
          | app -> Alcotest.(check bool) s true (app.Homeguard_rules.Rule.rules <> [])
          | exception Ifttt.Parse_error m -> Alcotest.failf "%S: %s" s m)
        valid_applets)

let tests =
  [
    QCheck_alcotest.to_alcotest ~long:false prop_raw_bytes_total;
    QCheck_alcotest.to_alcotest ~long:false prop_fragments_total;
    mutated_corpus_total;
    json_edge_cases_total;
    QCheck_alcotest.to_alcotest ~long:false prop_json_raw_bytes_total;
    mutated_payloads_total;
    QCheck_alcotest.to_alcotest ~long:false prop_print_parse_fixpoint;
    QCheck_alcotest.to_alcotest ~long:false prop_journal_bytes_total;
    QCheck_alcotest.to_alcotest ~long:false prop_journal_damage_total;
    QCheck_alcotest.to_alcotest ~long:false prop_journal_round_trip;
    QCheck_alcotest.to_alcotest ~long:false prop_journal_spans_reframe;
    QCheck_alcotest.to_alcotest ~long:false prop_config_uri_bytes;
    QCheck_alcotest.to_alcotest ~long:false prop_config_uri_splices;
    QCheck_alcotest.to_alcotest ~long:false prop_config_uri_mutations;
    valid_uris_round_trip;
    QCheck_alcotest.to_alcotest ~long:false prop_ifttt_bytes;
    QCheck_alcotest.to_alcotest ~long:false prop_ifttt_splices;
    QCheck_alcotest.to_alcotest ~long:false prop_ifttt_mutations;
    valid_applets_parse;
  ]
