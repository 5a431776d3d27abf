(* Totality law for the serve line protocol.

   [serve_fuzz.exe] writes a seeded corpus of protocol lines to stdout:
   arbitrary bytes, splices of the protocol's keywords and arguments,
   and 1-8 byte edits of valid commands, interleaved with valid commands
   that install, keep and configure apps so the junk meets a home with
   state in it. The dune rule beside it pipes
   the corpus into [homeguard serve] and then runs [homeguard recover]
   on the same state dir; both must exit 0 with nothing on stderr.

   Two kinds of line are rewritten so the run stays bounded and inside
   its sandbox: an [install] names one of [fixtures/*.groovy] or a
   missing path, never another file; and [inject stall], which sleeps
   the wall clock by request, and [quit], which would end the run
   early, are dropped.

   [serve_fuzz.exe --empty FILE...] fails, printing the file, when any
   FILE is not empty. *)

let lines = 3000

let fixtures =
  [
    "fixtures/AtticFanController.groovy";
    "fixtures/BathroomFanTimer.groovy";
    "fixtures/FanTimer2.groovy";
  ]

let missing = "fixtures/missing/NoSuchApp.groovy"

let uris =
  [
    "http://my.com/appname:AtticFanController/atticFan:0123456789abcdef0123456789abcdef/";
    "http://my.com/appname:BathroomFanTimer/threshold1:70/";
    "http://my.com/appname:FanTimer2/dev1:fedcba9876543210fedcba9876543210/threshold1:5/";
  ]

let valid =
  List.map (fun f -> "install " ^ f) (missing :: fixtures)
  @ List.map (fun u -> "config " ^ u) uris
  @ List.concat_map (fun u -> [ "deliver 1 " ^ u; "deliver 2 " ^ u; "deliver 70 " ^ u ]) uris
  @ [
      "keep";
      "reject";
      "uninstall AtticFanController";
      "uninstall FanTimer2";
      "decision AR:AtticFanController/r1:FanTimer2/r1 allow";
      "decision t1 confirm";
      "decision t1 block r1";
      "decision t1 prioritize AtticFanController";
      "decision t1 break 2";
      "status";
      "audit";
      "audit now";
      "drain";
      "quarantine";
      "quarantine clear AtticFanController";
      "inject crash 500";
      "inject crash 1000 Attic";
      "inject off";
      "compact";
      "help";
    ]

let keywords =
  [
    "install"; "keep"; "reject"; "config"; "deliver"; "uninstall"; "decision";
    "status"; "audit"; "now"; "drain"; "quarantine"; "clear"; "inject"; "crash";
    "off"; "compact"; "help"; "allow"; "confirm"; "block"; "prioritize"; "break";
  ]

let arguments =
  [
    "-1"; "0"; "1"; "2"; "64"; "65"; "nan"; "inf"; "-inf"; "1e309";
    "99999999999999999999"; "-99999999999999999999"; "4611686018427387904";
    ".."; "../.."; "/"; ""; "t1"; "AtticFanController"; missing;
  ]
  @ fixtures @ uris

let pick st l = List.nth l (Random.State.int st (List.length l))

(* any byte but the line separator *)
let byte st =
  let c = Random.State.int st 255 in
  Char.chr (if c >= Char.code '\n' then c + 1 else c)

let arbitrary st = String.init (Random.State.int st 48) (fun _ -> byte st)

let splice st =
  String.concat " "
    (pick st keywords
    :: List.init (Random.State.int st 5) (fun _ ->
           pick st (if Random.State.bool st then keywords else arguments)))

let edit st =
  let b = Buffer.create 64 in
  Buffer.add_string b (pick st valid);
  for _ = 1 to 1 + Random.State.int st 8 do
    let s = Buffer.contents b in
    let n = String.length s in
    let at = Random.State.int st (n + 1) in
    Buffer.clear b;
    match Random.State.int st 3 with
    | 0 when at < n ->
      (* replace *)
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (byte st);
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | 1 when at < n ->
      (* delete *)
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | _ ->
      (* insert *)
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (byte st);
      Buffer.add_string b (String.sub s at (n - at))
  done;
  Buffer.contents b

(* the serve loop's own tokenization *)
let words line = String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")

let sanitize line =
  match words line with
  | [ "install"; file ] when not (List.mem file fixtures) -> Some ("install " ^ missing)
  | "inject" :: "stall" :: _ -> None
  | _ when String.trim line = "quit" -> None
  | _ -> Some line

let generate () =
  let st = Random.State.make [| 0x5e7e; 30 |] in
  let rec go i =
    if i < lines then begin
      let line =
        match i mod 4 with
        | 0 -> arbitrary st
        | 1 -> splice st
        | 2 -> edit st
        | _ -> pick st valid
      in
      Option.iter print_endline (sanitize line);
      go (i + 1)
    end
  in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  match Array.to_list Sys.argv with
  | _ :: "--empty" :: files ->
    List.iter
      (fun f ->
        match read_file f with
        | "" -> ()
        | text ->
          Printf.eprintf "%s is not empty:\n%s" f text;
          exit 1)
      files
  | _ -> generate ()
