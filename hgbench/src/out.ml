(** Metrics and the one-line JSON result every run ends with. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(** Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and
    are at most 64 characters long. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let number v =
  if not (Float.is_finite v) then invalid_arg "Out.number: non-finite metric value";
  Printf.sprintf "%.17g" v

let quote s = "\"" ^ Homeguard_bench.Json.escape_string s ^ "\""

(** The result line: [{"correct", "attempted", "failed", "metrics"}]. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        if not (valid_name m.name) then invalid_arg ("Out: bad metric name " ^ m.name);
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name) (number m.value)
          (quote m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let pp_metric oc m = Printf.fprintf oc "  %-34s %16.6f %s\n" m.name m.value m.unit_
