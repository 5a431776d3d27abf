(** The bench-trajectory file format (DESIGN.md §12).

    A trajectory file ([BENCH_<tag>.json]) is one benchmark run frozen
    to disk, keyed by everything that legitimately changes the numbers:
    the dataset snapshot (hash of the corpus sources), the run config
    (jobs, budget fingerprint, quota) and the code version. [compare]
    diffs two files metric-by-metric; each metric carries its own
    direction, so deterministic counters (threat counts, solver calls)
    gate exactly while wall-clock timings are advisory unless the
    threshold says otherwise. *)

let format_version = "homeguard-bench/1"

type direction =
  | Lower_better  (** timings, solver calls: regression = value grew *)
  | Higher_better  (** throughput: regression = value shrank *)
  | Exact  (** deterministic counters: any drift is a regression *)
  | Info  (** recorded for the trajectory, never gated *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  direction : direction;
}

type section = { title : string; metrics : metric list }

type key = {
  dataset_id : string;
  snapshot_hash : string;  (** MD5 over the corpus entries (names + sources) *)
  config : string;  (** jobs / budget fingerprint / quota, human-readable *)
  code_version : string;
}

type t = { key : key; sections : section list }

let metric ?(unit_ = "") ~direction name value = { name; value; unit_; direction }

(* -- (de)serialization --------------------------------------------------- *)

let direction_to_string = function
  | Lower_better -> "lower_better"
  | Higher_better -> "higher_better"
  | Exact -> "exact"
  | Info -> "info"

let direction_of_string = function
  | "lower_better" -> Some Lower_better
  | "higher_better" -> Some Higher_better
  | "exact" -> Some Exact
  | "info" -> Some Info
  | _ -> None

let to_json t =
  Json.Obj
    [
      ("format", Json.Str format_version);
      ( "key",
        Json.Obj
          [
            ("dataset_id", Json.Str t.key.dataset_id);
            ("snapshot_hash", Json.Str t.key.snapshot_hash);
            ("config", Json.Str t.key.config);
            ("code_version", Json.Str t.key.code_version);
          ] );
      ( "sections",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("title", Json.Str s.title);
                   ( "metrics",
                     Json.List
                       (List.map
                          (fun m ->
                            Json.Obj
                              [
                                ("name", Json.Str m.name);
                                ("value", Json.Float m.value);
                                ("unit", Json.Str m.unit_);
                                ("direction", Json.Str (direction_to_string m.direction));
                              ])
                          s.metrics) );
                 ])
             t.sections) );
    ]

let to_string t = Json.to_string_pretty (to_json t) ^ "\n"

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name j =
  let* v = field name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is not a string" name)

let metric_of_json j =
  let* name = str_field "name" j in
  let* unit_ = str_field "unit" j in
  let* dir_s = str_field "direction" j in
  let* direction =
    match direction_of_string dir_s with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "metric %S: unknown direction %S" name dir_s)
  in
  let* vj = field "value" j in
  match Json.to_number vj with
  | Some value -> Ok { name; value; unit_; direction }
  | None -> Error (Printf.sprintf "metric %S: value is not a number" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let section_of_json j =
  let* title = str_field "title" j in
  let* mj = field "metrics" j in
  match Json.to_list mj with
  | None -> Error (Printf.sprintf "section %S: metrics is not a list" title)
  | Some items ->
    let* metrics = map_result metric_of_json items in
    Ok { title; metrics }

let of_json j =
  let* fmt = str_field "format" j in
  if fmt <> format_version then Error (Printf.sprintf "unsupported format %S" fmt)
  else
    let* kj = field "key" j in
    let* dataset_id = str_field "dataset_id" kj in
    let* snapshot_hash = str_field "snapshot_hash" kj in
    let* config = str_field "config" kj in
    let* code_version = str_field "code_version" kj in
    let* sj = field "sections" j in
    match Json.to_list sj with
    | None -> Error "sections is not a list"
    | Some items ->
      let* sections = map_result section_of_json items in
      Ok { key = { dataset_id; snapshot_hash; config; code_version }; sections }

let of_string s =
  let* j = Json.of_string s in
  of_json j

(* -- comparison ---------------------------------------------------------- *)

type status =
  | Unchanged
  | Improved
  | Regressed
  | Missing  (** in baseline, absent from current *)
  | Added  (** in current, absent from baseline *)

type delta = {
  section_title : string;
  metric_name : string;
  baseline : float option;
  current : float option;
  change_pct : float option;  (** (current - baseline) / |baseline| * 100 *)
  status : status;
}

let change_pct base cur =
  if base = 0.0 then (if cur = 0.0 then Some 0.0 else None)
  else Some ((cur -. base) /. Float.abs base *. 100.0)

let judge ~threshold_pct (m : metric) base cur =
  let pct = change_pct base cur in
  let beyond sign =
    match pct with
    | None -> cur <> base  (* baseline 0, current not: direction decides below *)
    | Some p -> sign *. p > threshold_pct
  in
  match m.direction with
  | Info -> Unchanged
  | Exact -> if cur = base then Unchanged else Regressed
  | Lower_better ->
    if beyond 1.0 then Regressed else if beyond (-1.0) then Improved else Unchanged
  | Higher_better ->
    if beyond (-1.0) then Regressed else if beyond 1.0 then Improved else Unchanged

(** Diff [current] against [baseline]. A metric present in only one
    file is reported ([Missing]/[Added]) but never fails the
    comparison; only [Regressed] rows do. *)
let compare ~threshold_pct ~baseline ~current =
  let find_section t title = List.find_opt (fun s -> s.title = title) t.sections in
  let deltas = ref [] in
  let emit d = deltas := d :: !deltas in
  List.iter
    (fun bs ->
      match find_section current bs.title with
      | None ->
        List.iter
          (fun m ->
            emit
              {
                section_title = bs.title;
                metric_name = m.name;
                baseline = Some m.value;
                current = None;
                change_pct = None;
                status = Missing;
              })
          bs.metrics
      | Some cs ->
        List.iter
          (fun (bm : metric) ->
            match List.find_opt (fun (cm : metric) -> cm.name = bm.name) cs.metrics with
            | None ->
              emit
                {
                  section_title = bs.title;
                  metric_name = bm.name;
                  baseline = Some bm.value;
                  current = None;
                  change_pct = None;
                  status = Missing;
                }
            | Some cm ->
              emit
                {
                  section_title = bs.title;
                  metric_name = bm.name;
                  baseline = Some bm.value;
                  current = Some cm.value;
                  change_pct = change_pct bm.value cm.value;
                  status = judge ~threshold_pct bm bm.value cm.value;
                })
          bs.metrics;
        List.iter
          (fun (cm : metric) ->
            if not (List.exists (fun (bm : metric) -> bm.name = cm.name) bs.metrics) then
              emit
                {
                  section_title = bs.title;
                  metric_name = cm.name;
                  baseline = None;
                  current = Some cm.value;
                  change_pct = None;
                  status = Added;
                })
          cs.metrics)
    baseline.sections;
  List.iter
    (fun cs ->
      if not (List.exists (fun bs -> bs.title = cs.title) baseline.sections) then
        List.iter
          (fun (m : metric) ->
            emit
              {
                section_title = cs.title;
                metric_name = m.name;
                baseline = None;
                current = Some m.value;
                change_pct = None;
                status = Added;
              })
          cs.metrics)
    current.sections;
  List.rev !deltas

let has_regression deltas = List.exists (fun d -> d.status = Regressed) deltas

(** Comparing runs with different keys is allowed (that is the point of
    a trajectory) but the differing key fields should be surfaced. *)
let key_drift ~baseline ~current =
  let pick name get =
    if get baseline.key <> get current.key then
      Some (Printf.sprintf "%s: %S -> %S" name (get baseline.key) (get current.key))
    else None
  in
  List.filter_map Fun.id
    [
      pick "dataset_id" (fun k -> k.dataset_id);
      pick "snapshot_hash" (fun k -> k.snapshot_hash);
      pick "config" (fun k -> k.config);
      pick "code_version" (fun k -> k.code_version);
    ]
