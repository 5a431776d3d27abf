(** Text serialization and replay of minimized chaos schedules. The
    format is deliberately dumb — one [key=value] token stream per line,
    no quoting, every field explicit — so a checked-in repro stays
    readable in review and diffs meaningfully when re-minimized:

    {v
    hg-chaos-repro v1
    invariant cache-no-stale-epoch-byte
    fence-enforced false
    config seed=42 shards=4 homes=10 steps=150 step-ms=50 ...
    event at=37 split-brain victim=1
    event at=52 storage-window mode=0 salt=42
    v} *)

module Fence = Homeguard_store.Fence
module Journal = Homeguard_store.Journal

type t = {
  config : Chaos.config;
  schedule : Chaos.scheduled list;
  invariant : string;
  fence_enforced : bool;
}

let version_line = "hg-chaos-repro v1"

let fail fmt = Printf.ksprintf failwith fmt

(* -- rendering ---------------------------------------------------------------- *)

(* The v1 config line names every setting, the campaign's one-value
   ones ({!Chaos.fixed_settings}) included. *)
let config_text (c : Chaos.config) =
  let fixed keys =
    String.concat " " (List.map (fun k -> k ^ "=" ^ List.assoc k Chaos.fixed_settings) keys)
  in
  Printf.sprintf
    "config seed=%d shards=%d homes=%d steps=%d %s fault-window=%d %s vcache=%b \
     replicas=%d %s"
    c.Chaos.seed c.Chaos.shards c.Chaos.homes c.Chaos.steps
    (fixed [ "step-ms"; "forced-kills"; "kill"; "stall" ])
    c.Chaos.fault_window_per_thousand (fixed [ "audit" ]) c.Chaos.vcache
    c.Chaos.replicas
    (fixed [ "replica-loss"; "replica-corrupt"; "cache-loss"; "cache-corrupt"; "split-brains" ])

let event_text { Chaos.at; ev } =
  match ev with
  | Chaos.Kill { victim } -> Printf.sprintf "event at=%d kill victim=%d" at victim
  | Chaos.Stall { victim } ->
    Printf.sprintf "event at=%d stall victim=%d" at victim
  | Chaos.Storage_window { mode; salt } ->
    Printf.sprintf "event at=%d storage-window mode=%d salt=%d" at mode salt
  | Chaos.Replica_destroy { home; replica } ->
    Printf.sprintf "event at=%d replica-destroy home=%d replica=%d" at home
      replica
  | Chaos.Replica_corrupt { home; replica; file; salt } ->
    Printf.sprintf "event at=%d replica-corrupt home=%d replica=%d file=%d salt=%d"
      at home replica file salt
  | Chaos.Cache_destroy { replica } ->
    Printf.sprintf "event at=%d cache-destroy replica=%d" at replica
  | Chaos.Cache_corrupt { replica; file; salt } ->
    Printf.sprintf "event at=%d cache-corrupt replica=%d file=%d salt=%d" at
      replica file salt
  | Chaos.Split_brain { victim } ->
    Printf.sprintf "event at=%d split-brain victim=%d" at victim

let to_text t =
  String.concat "\n"
    (version_line
     :: Printf.sprintf "invariant %s" t.invariant
     :: Printf.sprintf "fence-enforced %b" t.fence_enforced
     :: config_text t.config
     :: List.map event_text t.schedule)
  ^ "\n"

(* -- parsing ------------------------------------------------------------------ *)

let kv line tok =
  match String.index_opt tok '=' with
  | Some i ->
    (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> fail "repro line %d: malformed token %S (expected key=value)" line tok

let field line m k =
  match List.assoc_opt k m with
  | Some v -> v
  | None -> fail "repro line %d: missing field %s" line k

let int_field line m k =
  match int_of_string_opt (field line m k) with
  | Some n -> n
  | None -> fail "repro line %d: field %s is not an integer" line k

(* Event fields index shards, homes, replicas and files, and seed byte
   offsets: a negative one would reach array indexing and [lseek]. *)
let nat_field line m k =
  let n = int_field line m k in
  if n < 0 then fail "repro line %d: field %s is negative" line k;
  n

(* the counts [Chaos.run] and [Supervisor.create] require positive *)
let count_field line m k =
  let n = int_field line m k in
  if n < 1 then fail "repro line %d: field %s must be at least 1" line k;
  n

let bool_field line m k =
  match bool_of_string_opt (field line m k) with
  | Some b -> b
  | None -> fail "repro line %d: field %s is not a boolean" line k

let parse_config line toks =
  let m = List.map (kv line) toks in
  List.iter
    (fun (k, v) ->
      if field line m k <> v then fail "repro line %d: field %s must be %s" line k v)
    Chaos.fixed_settings;
  let i = int_field line m and b = bool_field line m in
  let count = count_field line m in
  {
    Chaos.seed = i "seed";
    shards = count "shards";
    homes = count "homes";
    steps = count "steps";
    fault_window_per_thousand = i "fault-window";
    vcache = b "vcache";
    replicas = count "replicas";
  }

let parse_event line toks =
  match toks with
  | at_tok :: name :: rest ->
    let at =
      match kv line at_tok with
      | "at", v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> n
        | Some _ -> fail "repro line %d: field at is negative" line
        | None -> fail "repro line %d: at=%S is not an integer" line v)
      | k, _ -> fail "repro line %d: expected at=<step>, got %s" line k
    in
    let m = List.map (kv line) rest in
    let i = nat_field line m in
    let ev =
      match name with
      | "kill" -> Chaos.Kill { victim = i "victim" }
      | "stall" -> Chaos.Stall { victim = i "victim" }
      | "storage-window" ->
        Chaos.Storage_window { mode = i "mode"; salt = i "salt" }
      | "replica-destroy" ->
        Chaos.Replica_destroy { home = i "home"; replica = i "replica" }
      | "replica-corrupt" ->
        Chaos.Replica_corrupt
          { home = i "home"; replica = i "replica"; file = i "file"; salt = i "salt" }
      | "cache-destroy" -> Chaos.Cache_destroy { replica = i "replica" }
      | "cache-corrupt" ->
        Chaos.Cache_corrupt
          { replica = i "replica"; file = i "file"; salt = i "salt" }
      | "split-brain" -> Chaos.Split_brain { victim = i "victim" }
      | other -> fail "repro line %d: unknown event kind %S" line other
    in
    { Chaos.at; ev }
  | _ -> fail "repro line %d: event needs at=<step> and a kind" line

let of_text text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> fail "repro: empty input"
  | (vline, v) :: rest ->
    if v <> version_line then
      fail "repro line %d: expected %S, got %S" vline version_line v;
    let invariant = ref None
    and fence_enforced = ref None
    and config = ref None
    and events = ref [] in
    List.iter
      (fun (n, l) ->
        match String.split_on_char ' ' l |> List.filter (fun t -> t <> "") with
        | "invariant" :: [ name ] -> invariant := Some name
        | "fence-enforced" :: [ v ] -> (
          match bool_of_string_opt v with
          | Some b -> fence_enforced := Some b
          | None -> fail "repro line %d: fence-enforced %S is not a boolean" n v)
        | "config" :: toks -> config := Some (parse_config n toks)
        | "event" :: toks -> events := parse_event n toks :: !events
        | directive :: _ -> fail "repro line %d: unknown directive %S" n directive
        | [] -> ())
      rest;
    let req what = function
      | Some v -> v
      | None -> fail "repro: missing %s line" what
    in
    {
      config = req "config" !config;
      schedule =
        List.stable_sort
          (fun a b -> compare a.Chaos.at b.Chaos.at)
          (List.rev !events);
      invariant = req "invariant" !invariant;
      fence_enforced = Option.value ~default:true !fence_enforced;
    }

(* -- persistence -------------------------------------------------------------- *)

let save t ~path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () -> output_string oc (to_text t));
  Sys.rename tmp path

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
    (fun () -> of_text (really_input_string ic (in_channel_length ic)))

(* -- replay and shrinking ------------------------------------------------------ *)

let replay t ~dir =
  Fence.with_enforced t.fence_enforced (fun () ->
      Chaos.run ~config:t.config ~schedule:t.schedule ~dir ())

let reproduces (report : Chaos.report) t =
  List.exists
    (fun (i : Chaos.invariant) -> i.Chaos.name = t.invariant && not i.Chaos.ok)
    report.Chaos.invariants

let split_chunks n xs =
  let len = List.length xs in
  let base = len / n and rem = len mod n in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else match xs with [] -> (List.rev acc, []) | h :: t -> take (k - 1) t (h :: acc)
  in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else
      let chunk, rest = take (base + if i < rem then 1 else 0) xs [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 xs []

let shrink ~dir t =
  let trials = ref 0 in
  let fails schedule =
    incr trials;
    let tdir = Filename.concat dir (Printf.sprintf "trial-%04d" !trials) in
    Journal.mkdirs tdir;
    reproduces (replay { t with schedule } ~dir:tdir) t
  in
  if not (fails t.schedule) then
    invalid_arg "Repro.shrink: the schedule does not violate the invariant";
  (* classic ddmin over the event list: try each chunk alone, then each
     complement, doubling granularity until single events *)
  let rec ddmin events n =
    let len = List.length events in
    if len <= 1 || n > len then events
    else
      let chunks = split_chunks n events in
      match
        List.find_opt (fun ch -> ch <> [] && List.length ch < len && fails ch) chunks
      with
      | Some ch -> ddmin ch 2
      | None -> (
        let complements =
          List.mapi
            (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks))
            chunks
        in
        match
          List.find_opt
            (fun comp -> comp <> [] && List.length comp < len && fails comp)
            complements
        with
        | Some comp -> ddmin comp (max 2 (n - 1))
        | None -> if n < len then ddmin events (min len (2 * n)) else events)
  in
  let minimal = ddmin t.schedule 2 in
  ({ t with schedule = minimal }, !trials)
