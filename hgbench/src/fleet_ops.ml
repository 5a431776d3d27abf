(** Operations on a fleet through the public [Supervisor] API, the reply
    checks they share, and a standalone single-replica [Home] that
    replays the same operations as the reference.

    Every operation goes through [Supervisor.run] with a span around the
    callee — exactly what [Supervisor.install] and [Supervisor.deliver]
    do — so traced and untraced requests take the same path; a span
    costs nothing on an untraced request. *)

module App_entry = Homeguard_corpus.App_entry
module Corpus = Homeguard_corpus.Corpus
module Supervisor = Homeguard_fleet.Supervisor
module Shard = Homeguard_fleet.Shard
module Broker = Homeguard_serve.Broker
module Home = Homeguard_store.Home
module Install_flow = Homeguard_frontend.Install_flow
module Detector = Homeguard_detector.Detector
module Vcache = Homeguard_vcache.Vcache

(** R=2 journal replicas, 4 shards, the verdict cache on, fsync off. *)
let config =
  {
    Supervisor.default_config with
    Supervisor.shards = 4;
    replicas = 2;
    fsync = false;
    vcache = true;
  }

type op =
  | Install of App_entry.t
  | Keep
  | Deliver of { seq : int; uri : string; repeat : bool }
      (** [repeat]: a resend of an already delivered sequence number *)
  | Uninstall of string

type outcome = Report of Install_flow.report | Ack | Failed of string

(** Reply tallies for the per-layer counters. *)
type replies = {
  mutable busy : int;
  mutable degraded : int;
  mutable shed : int;
  mutable unavailable : int;
  mutable crashed : int;
}

let replies () = { busy = 0; degraded = 0; shed = 0; unavailable = 0; crashed = 0 }

(* Count an unclean reply; its name. *)
let unclean r why =
  match why with
  | `Busy ->
    r.busy <- r.busy + 1;
    "busy"
  | `Degraded ->
    r.degraded <- r.degraded + 1;
    "degraded"
  | `Shed ->
    r.shed <- r.shed + 1;
    "shed"
  | `Unavailable ->
    r.unavailable <- r.unavailable + 1;
    "unavailable"
  | `Crashed ->
    r.crashed <- r.crashed + 1;
    "crashed"
  | `Refused -> "refused"  (* quarantined, failed install, malformed, overflow *)

let fail r why = Failed (unclean r why)

let routed r (reply : 'a Supervisor.reply) k =
  match reply with
  | Supervisor.Done { value; _ } -> k value
  | Supervisor.Unavailable _ -> fail r `Unavailable
  | Supervisor.Crashed _ -> fail r `Crashed

let clean_audit (a : Detector.audit_result) =
  a.Detector.failures = [] && a.Detector.shed = 0 && a.Detector.undecided = 0

let install_outcome r = function
  | Broker.Proposed { degraded = false; report; _ }
    when clean_audit report.Install_flow.audit && report.Install_flow.quarantine_note = None ->
    Report report
  | Broker.Proposed _ -> fail r `Degraded
  | Broker.Busy _ -> fail r `Busy
  | Broker.Quarantined_app _ | Broker.Install_failed _ -> fail r `Refused

let delivery_outcome r ~repeat = function
  | Home.Accepted (Homeguard_store.Ingest.Applied _) when not repeat -> Ack
  | Home.Accepted Homeguard_store.Ingest.Duplicate when repeat -> Ack
  | Home.Accepted _ | Home.Malformed _ -> fail r `Refused

let home_in sh id = Broker.home (Shard.broker sh) id

(** Run one operation against [home]. *)
let exec ?tracer r sup ~home op =
  let span name f = Spans.traced tracer name f in
  let via_run name f =
    span "fleet.route" (fun () -> Supervisor.run sup ~home (fun sh -> span name (fun () -> f sh)))
  in
  match op with
  | Install e ->
    routed r
      (via_run "serve.install" (fun sh ->
           Broker.install (Shard.broker sh) ~home ~name:e.App_entry.name
             ~source:e.App_entry.source ()))
      (install_outcome r)
  | Keep ->
    routed r
      (via_run "store.keep" (fun sh -> Home.decide (home_in sh home) Install_flow.Keep))
      (fun () -> Ack)
  | Deliver { seq; uri; repeat } ->
    routed r
      (via_run "store.deliver" (fun sh -> Home.deliver (home_in sh home) ~seq uri))
      (delivery_outcome r ~repeat)
  | Uninstall name ->
    routed r
      (via_run "store.uninstall" (fun sh -> Home.uninstall (home_in sh home) name))
      (fun removed -> if removed then Ack else fail r `Refused)

(** Re-audit one home: [submit_audit], then [drain] its shard. *)
let reaudit ?tracer r sup ~home =
  let span name f = Spans.traced tracer name f in
  let error why = Error (unclean r why) in
  match span "serve.submit_audit" (fun () -> Supervisor.submit_audit sup ~home ()) with
  | Supervisor.Done { value = Error _; _ } -> error `Busy
  | Supervisor.Unavailable _ -> error `Unavailable
  | Supervisor.Crashed _ -> error `Crashed
  | Supervisor.Done { value = Ok _; shard } -> (
    match span "serve.drain" (fun () -> Supervisor.drain sup ~shard) with
    | Supervisor.Done { value = [ Broker.Audited { result; degraded = false; _ } ]; _ }
      when clean_audit result ->
      Ok result
    | Supervisor.Done { value = [ Broker.Shed_job _ ]; _ } -> error `Shed
    | Supervisor.Done _ -> error `Degraded
    | Supervisor.Unavailable _ -> error `Unavailable
    | Supervisor.Crashed _ -> error `Crashed)

(** A fleet home's live state, for the oracles. *)
let live_home sup id =
  match Supervisor.owner_of sup id with
  | None -> None
  | Some idx -> (
    match Supervisor.shard sup idx with
    | Some sh -> Broker.home_opt (Shard.broker sh) id
    | None -> None)

let state_digest sup id =
  match live_home sup id with Some h -> Home.state_digest h | None -> "missing"

let cache_counters sup =
  match (Supervisor.stats sup).Supervisor.cache with
  | Some c -> c
  | None -> Vcache.zero_counters ()

(** [after - before], field by field, for the counters the benchmark
    reports. *)
let cache_delta (b : Vcache.counters) (a : Vcache.counters) =
  let d = Vcache.zero_counters () in
  d.Vcache.hits <- a.Vcache.hits - b.Vcache.hits;
  d.Vcache.misses <- a.Vcache.misses - b.Vcache.misses;
  d.Vcache.inserts <- a.Vcache.inserts - b.Vcache.inserts;
  d.Vcache.rehydrate_fallbacks <- a.Vcache.rehydrate_fallbacks - b.Vcache.rehydrate_fallbacks;
  d.Vcache.conflicts <- a.Vcache.conflicts - b.Vcache.conflicts;
  d.Vcache.pair_hits <- a.Vcache.pair_hits - b.Vcache.pair_hits;
  d.Vcache.pair_misses <- a.Vcache.pair_misses - b.Vcache.pair_misses;
  d

let cache_metrics (d : Vcache.counters) =
  let open Workload in
  [
    count "vcache.l2_hits" d.Vcache.hits;
    count "vcache.l2_misses" d.Vcache.misses;
    count "vcache.l2_inserts" d.Vcache.inserts;
    ratio "vcache.l2_hit_ratio" d.Vcache.hits (d.Vcache.hits + d.Vcache.misses);
    count "vcache.fallbacks" d.Vcache.rehydrate_fallbacks;
    count "vcache.conflicts" d.Vcache.conflicts;
    count "vcache.l1_hits" d.Vcache.pair_hits;
    ratio "vcache.l1_hit_ratio" d.Vcache.pair_hits (d.Vcache.pair_hits + d.Vcache.pair_misses);
  ]

let reply_metrics r =
  let open Workload in
  [
    count "serve.busy" r.busy;
    count "serve.degraded" r.degraded;
    count "serve.shed" r.shed;
    count "fleet.unavailable" r.unavailable;
    count "fleet.crashed" r.crashed;
  ]

(* -- the reference: a standalone single-replica home, no cache -------------- *)

let reference_home dir = fst (Home.open_ ~fsync:false ~mode:config.Supervisor.mode ~dir ())

(** The same operation on the reference home, through [Home] directly
    with the budget the broker would pass. *)
let reference_exec home op =
  let r = replies () in
  match op with
  | Install e ->
    let budget = (Home.config home).Detector.budget in
    Report (Home.propose ~budget home (Workload.extract e))
  | Keep ->
    Home.decide home Install_flow.Keep;
    Ack
  | Deliver { seq; uri; repeat } -> delivery_outcome r ~repeat (Home.deliver home ~seq uri)
  | Uninstall name -> if Home.uninstall home name then Ack else Failed "refused"

(** An install report as the oracles compare it: its threats and
    chains, digested. *)
let report_digest (rep : Install_flow.report) =
  Workload.digest_strings
    (Workload.threat_lines rep.Install_flow.threats
    @ List.map Homeguard_detector.Chain.chain_to_string rep.Install_flow.chains)

(** Configuration URI in the phone-app format [Synth] uses, with its
    value distribution: one or two devices, zero to two thresholds. *)
let config_uri st name =
  let hex () = String.init 32 (fun _ -> "0123456789abcdef".[Random.State.int st 16]) in
  let b = Buffer.create 128 in
  Buffer.add_string b ("http://my.com/appname:" ^ name ^ "/");
  for d = 1 to 1 + Random.State.int st 2 do
    Buffer.add_string b (Printf.sprintf "dev%d:%s/" d (hex ()))
  done;
  for v = 1 to Random.State.int st 3 do
    Buffer.add_string b (Printf.sprintf "threshold%d:%d/" v (Random.State.int st 100))
  done;
  Buffer.contents b

(* The smallest app count whose share of homes reaches [q]. Synth's
   count is geometric (one more app with probability 2/3) up to
   [max_apps], so P(count > k) = (2/3)^k below the cap. *)
let count_at ~max_apps q =
  let rec go k =
    if k >= max_apps || 1.0 -. ((2.0 /. 3.0) ** float_of_int k) >= q then k else go (k + 1)
  in
  go 1

type home = {
  id : string;
  apps : (App_entry.t * string option) list;
      (** install order, each with its configuration URI if configured *)
}

(** [n] synthetic homes in the style of [Corpus.synth].

    The fleet's composition is the same for every seed: home sizes
    follow Synth's heavy-tailed histogram exactly (home [i] of [n] takes
    the app count at quantile (i + 1/2)/n), every app of the pool is
    installed about equally often, and which apps get configured, and
    with what values, is fixed. The seed picks which home id (and so
    which shard) each home gets. Drawing sizes, apps or configuration
    values per seed moved a run's total work by 8-40% from seed to
    seed: configuration values decide which solves the shared verdict
    cache can answer. *)
let fleet ~max_apps ~seed n =
  let fixed = Random.State.make [| 0xf1ee7 |] in
  let counts =
    Workload.shuffle fixed
      (List.init n (fun i -> count_at ~max_apps ((float_of_int i +. 0.5) /. float_of_int n)))
  in
  (* apps come from a stream of permutations of the pool; an app already
     in the home waits for the next home *)
  let stream = ref [] and deferred = ref [] in
  let rec next () =
    match (!deferred, !stream) with
    | a :: rest, _ ->
      deferred := rest;
      a
    | [], a :: rest ->
      stream := rest;
      a
    | [], [] ->
      stream := Workload.shuffle fixed Corpus.audit_apps;
      next ()
  in
  let take k =
    let rec go chosen skipped =
      if List.length chosen = k then begin
        deferred := List.rev_append skipped !deferred;
        List.rev chosen
      end
      else
        let a = next () in
        if List.memq a chosen then go chosen (a :: skipped) else go (a :: chosen) skipped
    in
    go [] []
  in
  let homes =
    List.map
      (fun k ->
        List.map
          (fun (e : App_entry.t) ->
            let configured = Random.State.int fixed 3 > 0 in
            (e, if configured then Some (config_uri fixed e.App_entry.name) else None))
          (take k))
      counts
  in
  List.mapi
    (fun i apps -> { id = Printf.sprintf "h%04d" i; apps })
    (Workload.shuffle (Random.State.make [| 0xf1ee7; seed |]) homes)

(** The operations that populate a home: each app installed and kept,
    then its configuration delivered, with sequence numbers from 1. *)
let populate h =
  let seq = ref 0 in
  List.concat_map
    (fun ((e : App_entry.t), config) ->
      [ Install e; Keep ]
      @
      match config with
      | None -> []
      | Some uri ->
        incr seq;
        [ Deliver { seq = !seq; uri; repeat = false } ])
    h.apps

let open_fleet ~dir homes =
  Supervisor.create ~config ~dir ~homes ()
