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

type t = {
  config : Chaos.config;
  schedule : Chaos.scheduled list;
  invariant : string;
  fence_enforced : bool;
}

let version_line = "hg-chaos-repro v1"

let fail fmt = Printf.ksprintf failwith fmt

(* -- rendering ---------------------------------------------------------------- *)

let config_text (c : Chaos.config) =
  Printf.sprintf
    "config seed=%d shards=%d homes=%d steps=%d step-ms=%g forced-kills=%d \
     kill=%d stall=%d fault-window=%d audit=%d vcache=%b replicas=%d \
     replica-loss=%d replica-corrupt=%d cache-loss=%d cache-corrupt=%d \
     split-brains=%d"
    c.Chaos.seed c.Chaos.shards c.Chaos.homes c.Chaos.steps c.Chaos.step_ms
    c.Chaos.forced_kills c.Chaos.kill_per_thousand c.Chaos.stall_per_thousand
    c.Chaos.fault_window_per_thousand c.Chaos.audit_per_thousand c.Chaos.vcache
    c.Chaos.replicas c.Chaos.replica_loss_per_thousand
    c.Chaos.replica_corrupt_per_thousand c.Chaos.cache_loss_per_thousand
    c.Chaos.cache_corrupt_per_thousand c.Chaos.split_brains

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

let float_field line m k =
  match float_of_string_opt (field line m k) with
  | Some f -> f
  | None -> fail "repro line %d: field %s is not a number" line k

let bool_field line m k =
  match bool_of_string_opt (field line m k) with
  | Some b -> b
  | None -> fail "repro line %d: field %s is not a boolean" line k

let parse_config line toks =
  let m = List.map (kv line) toks in
  let i = int_field line m and f = float_field line m and b = bool_field line m in
  let count = count_field line m in
  {
    Chaos.seed = i "seed";
    shards = count "shards";
    homes = count "homes";
    steps = count "steps";
    step_ms = f "step-ms";
    forced_kills = i "forced-kills";
    kill_per_thousand = i "kill";
    stall_per_thousand = i "stall";
    fault_window_per_thousand = i "fault-window";
    audit_per_thousand = i "audit";
    vcache = b "vcache";
    replicas = count "replicas";
    replica_loss_per_thousand = i "replica-loss";
    replica_corrupt_per_thousand = i "replica-corrupt";
    cache_loss_per_thousand = i "cache-loss";
    cache_corrupt_per_thousand = i "cache-corrupt";
    split_brains = i "split-brains";
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

(* -- replay ------------------------------------------------------------------- *)

let replay ?enforce_fence t ~dir =
  let enforce = Option.value ~default:t.fence_enforced enforce_fence in
  let campaign () = Chaos.run ~config:t.config ~schedule:t.schedule ~dir () in
  if enforce then campaign ()
  else begin
    Fence.set_enforced false;
    Fun.protect ~finally:(fun () -> Fence.set_enforced true) campaign
  end

let reproduces report t = Chaos.violates report ~invariant:t.invariant
