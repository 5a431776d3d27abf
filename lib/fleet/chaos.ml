(** The chaos-campaign harness: an {e explicit, seeded fault schedule}
    of shard kills, stalls, storage-fault windows, replica and
    cache-replica damage and stall-then-revive (split-brain) windows
    layered over a synthetic-home workload, with the fleet invariants
    verified at the end:

    {ol
    {- {b No silent acked loss} — every install, config ingest,
       decision and quarantine the fleet acknowledged is present after
       final recovery, unless a recovery {e reported} damage
       (quarantined/skipped records) for that home. Honest, surfaced
       loss — a flipped frame moved to the corruption sidecar — is the
       storage model working; silent loss is the violation.}
    {- {b Replay determinism} — recovering each home twice yields
       byte-identical canonical state ({!Home.state_text}).}
    {- {b Quarantine and handling survival} — acked quarantines and
       handling decisions are in the recovered state (same honest-loss
       carve-out as invariant 1).}
    {- {b No false clean bill} — no outcome whose work was cut
       (shed > 0, shard unavailable, crashed) was ever classified as
       conclusive.}}

    plus the replication invariants (no stale-epoch append accepted,
    scrub convergence and idempotence) and — when the shared verdict
    cache is on — the cache-surface invariants (no stale-epoch cache
    byte, cache-scrub convergence/idempotence, and a warm reopened
    cache auditing byte-identically to a cold one).

    The schedule is derived up front from a dedicated fault RNG (the
    workload runs off a second, independent stream), so a campaign can
    be re-run with any {e subset} of its fault events: {!shrink}
    delta-debugs a failing schedule down to a minimal reproduction. *)

module Home = Homeguard_store.Home
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Journal = Homeguard_store.Journal
module Rjournal = Homeguard_store.Rjournal
module Broker = Homeguard_serve.Broker
module Shed = Homeguard_serve.Shed
module Install_flow = Homeguard_frontend.Install_flow
module Policy = Homeguard_handling.Policy
module Detector = Homeguard_detector.Detector
module Fault = Homeguard_solver.Fault
module Budget = Homeguard_solver.Budget
module Corpus = Homeguard_corpus.Corpus
module Synth = Homeguard_corpus.Synth
module App_entry = Homeguard_corpus.App_entry
module Rule = Homeguard_rules.Rule
module Vcache = Homeguard_vcache.Vcache

type config = {
  seed : int;
  shards : int;
  homes : int;
  steps : int;
  step_ms : float;  (** simulated clock advance per step *)
  forced_kills : int;
      (** deterministic kills at evenly spaced steps, rotating victims
          — guarantees the campaign exercises kill+recover even at
          small step counts *)
  kill_per_thousand : int;  (** extra random kills, per step *)
  stall_per_thousand : int;  (** wedge a shard past its heartbeat window *)
  fault_window_per_thousand : int;
      (** chance per step to open a storage-fault window
          (crash/torn/flip cycling) for the next few steps *)
  audit_per_thousand : int;  (** background re-audit + drain *)
  vcache : bool;  (** shared verdict cache on + cache invariants *)
  replicas : int;  (** journal replicas per home *)
  replica_loss_per_thousand : int;
      (** chance per step to destroy one non-primary replica of a random
          home (the primary always survives destruction windows, so
          "some replica survives" holds by construction; primary damage
          comes from the corruption window and storage faults) *)
  replica_corrupt_per_thousand : int;
      (** chance per step to flip one byte in one replica file of a
          random home — any replica, including the primary *)
  cache_loss_per_thousand : int;
      (** chance per step to destroy one non-primary replica of the
          shared verdict cache (same primary-survives rule as
          [replica_loss_per_thousand]) *)
  cache_corrupt_per_thousand : int;
      (** chance per step to flip one byte in one cache replica file —
          any replica, including the primary *)
  split_brains : int;
      (** forced stall-then-revive windows: wedge a shard (its worker
          keeps its journal writers {e and} its verdict-cache handle),
          let the fleet rebalance, then drive the zombie's handles
          expecting every append — home journal and cache alike —
          fenced *)
}

let default_config =
  {
    seed = 42;
    shards = 4;
    homes = 24;
    steps = 400;
    step_ms = 50.0;
    forced_kills = 3;
    kill_per_thousand = 5;
    stall_per_thousand = 8;
    fault_window_per_thousand = 25;
    audit_per_thousand = 40;
    vcache = true;
    replicas = 2;
    replica_loss_per_thousand = 12;
    replica_corrupt_per_thousand = 12;
    cache_loss_per_thousand = 10;
    cache_corrupt_per_thousand = 10;
    split_brains = 1;
  }

let smoke_config =
  { default_config with homes = 10; steps = 150; fault_window_per_thousand = 20 }

(* -- the explicit fault schedule ---------------------------------------------- *)

(** One scheduled fault. Every parameter the fault needs is minted at
    derivation time (home/replica/file indices, corruption salts), so an
    event fires identically whether it runs inside the full schedule or
    a shrunk subset. *)
type fault_event =
  | Kill of { victim : int }
  | Stall of { victim : int }
  | Storage_window of { mode : int; salt : int }
      (** open a crash/torn/flip window ([mode] indexes the cycling
          order) armed with [salt] as the storage-fault seed *)
  | Replica_destroy of { home : int; replica : int }
      (** [home] indexes the synthetic homes; [replica] the non-primary
          replica list *)
  | Replica_corrupt of { home : int; replica : int; file : int; salt : int }
      (** flip byte [salt mod size] of the [file]th journal file of the
          [replica]th directory (primary included) *)
  | Cache_destroy of { replica : int }  (** non-primary cache replicas only *)
  | Cache_corrupt of { replica : int; file : int; salt : int }
  | Split_brain of { victim : int }

type scheduled = { at : int; ev : fault_event }

let storage_modes = [| Fault.Crash; Fault.Torn; Fault.Flip |]

(** Derive the full fault schedule for a config — a pure function of
    the seed, independent of the workload RNG. Forced kills and
    split-brain windows become ordinary schedule entries, so the
    schedule is the {e complete} fault plan: replaying a subset of it
    replays exactly those faults and nothing else. *)
let schedule_of_config config =
  let rng = Random.State.make [| 0xfa5eed; config.seed |] in
  let events = ref [] in
  let emit at ev = events := { at; ev } :: !events in
  let salt () = Random.State.int rng 0x3FFFFFFF in
  (* forced kills at evenly spaced steps, rotating victims *)
  List.iter
    (fun (at, victim) -> emit at (Kill { victim }))
    (List.init config.forced_kills (fun i ->
         (config.steps * (i + 1) / (config.forced_kills + 1), i mod config.shards)));
  (* split-brain windows sit in the first half of the campaign, while
     the slots still have restart budget to grant successor epochs *)
  List.iter
    (fun (at, victim) -> emit at (Split_brain { victim }))
    (List.init config.split_brains (fun i ->
         ( config.steps * (i + 1) / (2 * (config.split_brains + 1)),
           (i + 1) mod config.shards )));
  let window_until = ref 0 and windows = ref 0 in
  for at = 1 to config.steps do
    if
      at >= !window_until
      && Random.State.int rng 1000 < config.fault_window_per_thousand
    then begin
      emit at
        (Storage_window
           {
             mode = !windows mod Array.length storage_modes;
             salt = config.seed + !windows;
           });
      incr windows;
      window_until := at + 9
    end;
    if Random.State.int rng 1000 < config.kill_per_thousand then
      emit at (Kill { victim = Random.State.int rng config.shards });
    if Random.State.int rng 1000 < config.stall_per_thousand then
      emit at (Stall { victim = Random.State.int rng config.shards });
    if
      config.replicas > 1
      && Random.State.int rng 1000 < config.replica_loss_per_thousand
    then
      emit at
        (Replica_destroy
           {
             home = Random.State.int rng config.homes;
             replica = Random.State.int rng (config.replicas - 1);
           });
    if Random.State.int rng 1000 < config.replica_corrupt_per_thousand then
      emit at
        (Replica_corrupt
           {
             home = Random.State.int rng config.homes;
             replica = Random.State.int rng config.replicas;
             file = Random.State.int rng 2;
             salt = salt ();
           });
    if
      config.vcache && config.replicas > 1
      && Random.State.int rng 1000 < config.cache_loss_per_thousand
    then
      emit at (Cache_destroy { replica = Random.State.int rng (config.replicas - 1) });
    if config.vcache && Random.State.int rng 1000 < config.cache_corrupt_per_thousand
    then
      emit at
        (Cache_corrupt
           {
             replica = Random.State.int rng config.replicas;
             file = Random.State.int rng 2;
             salt = salt ();
           })
  done;
  List.stable_sort (fun a b -> compare a.at b.at) (List.rev !events)

type invariant = { name : string; ok : bool; detail : string }

type report = {
  config : config;
  schedule : scheduled list;  (** the fault plan this campaign executed *)
  ops : int;
  installs_acked : int;
  configs_acked : int;
  decisions_acked : int;
  quarantines_acked : int;
  degraded_replies : int;  (** Unavailable/Crashed routing outcomes *)
  busy_replies : int;
  stalled_timeouts : int;
  served_while_impaired : int;
      (** ops completed by healthy shards while some shard was down *)
  fault_windows : int;
  replicas_destroyed : int;  (** replica files removed by loss windows *)
  replicas_corrupted : int;  (** replica files bit-flipped by corruption windows *)
  cache_destroyed : int;  (** cache replica files removed *)
  cache_corrupted : int;  (** cache replica files bit-flipped *)
  zombie_rejected : int;  (** fenced appends the split-brain zombies attempted *)
  zombie_accepted : int;  (** must be 0: stale appends that reached the disk *)
  cache_probe_fenced : int;  (** zombie cache writes refused at the fence *)
  cache_probe_accepted : int;  (** must be 0: stale cache writes gone durable *)
  scrub : Scrub.counters;  (** the post-campaign anti-entropy pass *)
  scrub_second : Scrub.counters;  (** must be all-healthy: repair is idempotent *)
  cache_scrub : Scrub.home_report option;  (** cache-surface anti-entropy pass *)
  cache_scrub_second : Scrub.home_report option;  (** must be healthy *)
  stats : Supervisor.stats;
  shards_killed : int;  (** distinct shards that went down *)
  shards_recovered : int;  (** distinct shards that came back *)
  invariants : invariant list;
}

let passed r = List.for_all (fun i -> i.ok) r.invariants

(* Per-home ledger of what the fleet acknowledged: the ground truth the
   final recovery is audited against. *)
type expect = {
  synth : Synth.home;
  mutable next_app : int;
  mutable next_seq : int;
  mutable installed : string list;
  mutable acked_seq : int;
  mutable decisions : (string * Policy.decision) list;
  mutable quarantined : string list;
  mutable threat_ids : string list;  (** ids seen in kept reports *)
}

type campaign = {
  cfg : config;
  dir : string;  (** the fleet root *)
  sup : Supervisor.t;
  schedule : scheduled list;
  rng : Random.State.t;  (** the workload stream — never consulted by faults *)
  now : float ref;
  expects : (string * expect) list;
  stalled : int array;  (** steps of withheld heartbeats left, per shard *)
  mutable pending_splits : int list;
      (** split-brain victims still waiting for a live worker to wedge *)
  mutable zombies : Shard.t list;  (** wedged workers still holding writers *)
  mutable zombie_rejected : int;
  mutable zombie_accepted : int;
  mutable cache_probe_fenced : int;
  mutable cache_probe_accepted : int;
  mutable replicas_destroyed : int;
  mutable replicas_corrupted : int;
  mutable cache_destroyed : int;
  mutable cache_corrupted : int;
  mutable fault_steps_left : int;
  mutable fault_windows : int;
  mutable ops : int;
  mutable busy : int;
  mutable degraded : int;
  mutable stalled_timeouts : int;
  mutable served_while_impaired : int;
  mutable false_clean : int;
  mutable outcomes_checked : int;
  mutable killed : int list;  (** distinct shards seen down *)
  mutable recovered : int list;  (** distinct killed shards seen back up *)
}

let add_distinct x xs = if List.mem x xs then xs else x :: xs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  n = 0
  ||
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let impaired c =
  List.exists
    (fun i -> Supervisor.shard_state c.sup i <> `Running)
    (List.init c.cfg.shards Fun.id)

(* Structural invariant-4 accounting: every reply passes through here. *)
let classify c reply =
  c.ops <- c.ops + 1;
  let was_impaired = impaired c in
  (match reply with
  | Supervisor.Done _ -> if was_impaired then
      c.served_while_impaired <- c.served_while_impaired + 1
  | Supervisor.Unavailable _ | Supervisor.Crashed _ ->
    c.degraded <- c.degraded + 1;
    c.outcomes_checked <- c.outcomes_checked + 1;
    if Shed.conclusive (Supervisor.to_outcome reply) then
      c.false_clean <- c.false_clean + 1);
  reply

let check_audit_outcome c = function
  | Broker.Audited { result; degraded; _ } ->
    c.outcomes_checked <- c.outcomes_checked + 1;
    if result.Detector.shed > 0 && not degraded then
      c.false_clean <- c.false_clean + 1
  | Broker.Shed_job _ -> c.outcomes_checked <- c.outcomes_checked + 1

(* -- workload ops ------------------------------------------------------------- *)

let op_install c (id, ex) =
  if ex.next_app < List.length ex.synth.Synth.apps then begin
    let app = List.nth ex.synth.Synth.apps ex.next_app in
    let name = app.App_entry.name and source = app.App_entry.source in
    match
      classify c
        (Supervisor.run c.sup ~home:id (fun sh ->
             let broker = Shard.broker sh in
             match Broker.install broker ~home:id ~name ~source () with
             | Broker.Proposed { report; degraded; _ } ->
               Home.decide (Broker.home broker id) Install_flow.Keep;
               `Kept (report, degraded)
             | Broker.Busy { retry_after_ms } -> `Busy retry_after_ms
             | Broker.Quarantined_app _ -> `Refused
             | Broker.Install_failed { quarantined; _ } -> `Failed quarantined))
    with
    | Supervisor.Done { value = `Kept (report, degraded); _ } ->
      c.outcomes_checked <- c.outcomes_checked + 1;
      if report.Install_flow.audit.Detector.shed > 0 && not degraded then
        c.false_clean <- c.false_clean + 1;
      ex.installed <- add_distinct name ex.installed;
      ex.next_app <- ex.next_app + 1;
      ex.threat_ids <-
        List.fold_left
          (fun acc th -> add_distinct (Policy.threat_id th) acc)
          ex.threat_ids report.Install_flow.threats;
      `Acked_install
    | Supervisor.Done { value = `Busy _; _ } ->
      c.busy <- c.busy + 1;
      `Other
    | Supervisor.Done { value = `Failed quarantined; _ } ->
      if quarantined then ex.quarantined <- add_distinct name ex.quarantined;
      ex.next_app <- ex.next_app + 1;  (* don't wedge on a poisoned app *)
      `Other
    | Supervisor.Done { value = `Refused; _ } ->
      ex.next_app <- ex.next_app + 1;
      `Other
    | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other
  end
  else `Other

let op_deliver c (id, ex) =
  match ex.synth.Synth.configs with
  | [] -> `Other
  | configs ->
    let uri = List.nth configs (ex.next_seq mod List.length configs) in
    let seq = ex.next_seq + 1 in
    (match classify c (Supervisor.deliver c.sup ~home:id ~seq uri) with
    | Supervisor.Done { value = Home.Accepted _; _ } ->
      ex.next_seq <- seq;
      ex.acked_seq <- max ex.acked_seq seq;
      `Acked_config
    | Supervisor.Done { value = Home.Malformed _; _ } ->
      ex.next_seq <- seq;
      `Other
    | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other)

let op_decision c (id, ex) =
  match ex.threat_ids with
  | [] -> `Other
  | ids ->
    let tid = List.nth ids (Random.State.int c.rng (List.length ids)) in
    let d = if Random.State.bool c.rng then Policy.Allow else Policy.Confirm in
    (match
       classify c
         (Supervisor.run c.sup ~home:id (fun sh ->
              Home.set_decision (Broker.home (Shard.broker sh) id) tid d))
     with
    | Supervisor.Done _ ->
      ex.decisions <- (tid, d) :: List.remove_assoc tid ex.decisions;
      `Acked_decision
    | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other)

let op_quarantine c (id, ex) =
  match ex.installed with
  | [] -> `Other
  | apps ->
    let app = List.nth apps (Random.State.int c.rng (List.length apps)) in
    (match
       classify c
         (Supervisor.run c.sup ~home:id (fun sh ->
              Home.quarantine
                (Broker.home (Shard.broker sh) id)
                ~app ~reason:"chaos-injected"))
     with
    | Supervisor.Done _ ->
      ex.quarantined <- add_distinct app ex.quarantined;
      `Acked_quarantine
    | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other)

let op_audit c (id, _ex) =
  match classify c (Supervisor.submit_audit c.sup ~home:id ()) with
  | Supervisor.Done { value = Ok _; shard } -> (
    match classify c (Supervisor.drain c.sup ~shard) with
    | Supervisor.Done { value = outcomes; _ } ->
      List.iter (check_audit_outcome c) outcomes;
      `Other
    | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other)
  | Supervisor.Done { value = Error _; _ } ->
    c.busy <- c.busy + 1;
    `Other
  | Supervisor.Unavailable _ | Supervisor.Crashed _ -> `Other

(* -- damage windows ----------------------------------------------------------- *)

let home_files = [ "snapshot"; "journal" ]
let cache_files = [ "cache.snapshot"; "cache.journal" ]

(* The cache surface's replica roots, mirroring the supervisor's layout:
   primary at [dir/vcache], replica [k] at [dir/r<k>/vcache]. *)
let cache_dirs ~fleet_dir ~replicas =
  Filename.concat fleet_dir "vcache"
  :: List.init
       (max 0 (replicas - 1))
       (fun k ->
         Filename.concat
           (Filename.concat fleet_dir (Printf.sprintf "r%d" (k + 1)))
           "vcache")

(* Flip one byte (a case-flip, so text and binary both corrupt) at a
   salt-chosen offset — bit rot with a schedule-replayable position. *)
let flip_byte path ~salt =
  Sys.file_exists path
  &&
  let size = (Unix.stat path).Unix.st_size in
  size > 0
  &&
  let off = salt mod size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      Unix.read fd b 0 1 = 1
      && begin
           Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
           ignore (Unix.lseek fd off Unix.SEEK_SET);
           ignore (Unix.write fd b 0 1);
           true
         end)

let remove_files dir files =
  List.fold_left
    (fun removed f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then begin
        (try Sys.remove p with Sys_error _ -> ());
        true
      end
      else removed)
    false files

(* Destroy one non-primary replica of the scheduled home — disk death.
   The home's live writer keeps appending to the unlinked inode; the
   next recovery or scrub recreates the replica from a surviving
   sibling. Quarantine sidecars are left alone: they are the durable
   damage evidence the loss invariants consult. *)
let destroy_replica c ~home ~replica =
  let id = fst (List.nth c.expects (home mod List.length c.expects)) in
  let dirs = Shard.home_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas id in
  match List.tl dirs with
  | [] -> ()
  | victims ->
    let vdir = List.nth victims (replica mod List.length victims) in
    if remove_files vdir home_files then
      c.replicas_destroyed <- c.replicas_destroyed + 1

(* Flip one byte in one replica file of the scheduled home — bit rot.
   May hit the primary: read-repair must heal whichever copy is
   damaged. *)
let corrupt_replica c ~home ~replica ~file ~salt =
  let id = fst (List.nth c.expects (home mod List.length c.expects)) in
  let dirs = Shard.home_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas id in
  let vdir = List.nth dirs (replica mod List.length dirs) in
  let path = Filename.concat vdir (List.nth home_files (file mod 2)) in
  if flip_byte path ~salt then c.replicas_corrupted <- c.replicas_corrupted + 1

(* Same two windows for the verdict-cache surface: the cache is a
   durable replica set like any home journal, so it gets the same
   treatment — destruction spares the primary, corruption does not. *)
let destroy_cache_replica c ~replica =
  if c.cfg.vcache then
    match List.tl (cache_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas) with
    | [] -> ()
    | victims ->
      let vdir = List.nth victims (replica mod List.length victims) in
      if remove_files vdir cache_files then
        c.cache_destroyed <- c.cache_destroyed + 1

let corrupt_cache_replica c ~replica ~file ~salt =
  if c.cfg.vcache then begin
    let dirs = cache_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas in
    let vdir = List.nth dirs (replica mod List.length dirs) in
    let path = Filename.concat vdir (List.nth cache_files (file mod 2)) in
    if flip_byte path ~salt then c.cache_corrupted <- c.cache_corrupted + 1
  end

(* Drive every wedged worker's handles once a successor epoch has been
   granted (the "revive after rebalance" moment): each journaling
   attempt — home journal and verdict cache alike — must be fenced. An
   append that reaches the disk is a stale write accepted — the
   split-brain failure this harness exists to catch. *)
let drive_zombies c =
  List.iter
    (fun z ->
      List.iter
        (fun (_, h) ->
          (* if no successor epoch was ever granted (the slot died past
             its restart budget before any reopen), grant it now:
             ownership always moves before a wedged worker revives,
             never the other way around *)
          if Fence.current (Home.dir h) <= Home.epoch h then
            ignore (Fence.acquire (Home.dir h) (Home.epoch h + 1) : int);
          if Fence.current (Home.dir h) > Home.epoch h then
            match Home.set_decision h "chaos-zombie" Policy.Allow with
            | () -> c.zombie_accepted <- c.zombie_accepted + 1
            | exception Fence.Stale _ -> c.zombie_rejected <- c.zombie_rejected + 1
            | exception Fault.Crashed _ ->
              (* the fence passed (it is checked first) and then a
                 storage fault killed the write: still a stale append
                 that was let through *)
              c.zombie_accepted <- c.zombie_accepted + 1)
        (Broker.homes (Shard.broker z));
      (* the zombie's retained verdict-cache handle gets the same
         treatment: grant the successor ownership epoch if the real
         replacement never attached, then probe one durable write *)
      match Shard.vcache z with
      | None -> ()
      | Some h ->
        let k = Vcache.fence_key h and e = Vcache.handle_epoch h in
        if Fence.current k <= e then ignore (Fence.acquire k (e + 1) : int);
        (match Vcache.probe_write h with
        | `Fenced -> c.cache_probe_fenced <- c.cache_probe_fenced + 1
        | `Accepted -> c.cache_probe_accepted <- c.cache_probe_accepted + 1
        | `Dropped ->
          (* fence passed, storage fault killed the append: a stale
             write let through, same rule as the home path *)
          c.cache_probe_accepted <- c.cache_probe_accepted + 1))
    c.zombies

(* -- the campaign loop -------------------------------------------------------- *)

(* Wedge the first running shard at or after the scheduled victim — a
   split-brain needs a live worker to turn into a zombie. [false] when
   no shard is running: the caller keeps the window open and retries
   next step, so a scheduled split-brain is never silently skipped. *)
let try_wedge c victim =
  let cfg = c.cfg in
  let rec go k =
    k < cfg.shards
    &&
    let v = (victim + k) mod cfg.shards in
    match Supervisor.wedge c.sup v with
    | Some z ->
      c.killed <- add_distinct v c.killed;
      c.zombies <- z :: c.zombies;
      true
    | None -> go (k + 1)
  in
  go 0

let fire c ev =
  let cfg = c.cfg in
  match ev with
  | Kill { victim } ->
    let v = victim mod cfg.shards in
    if Supervisor.kill c.sup v then c.killed <- add_distinct v c.killed
  | Stall { victim } ->
    (* withhold beats long enough to blow the heartbeat window *)
    c.stalled.(victim mod cfg.shards) <- 8
  | Storage_window { mode; salt } ->
    if c.fault_steps_left = 0 then begin
      Fault.arm_storage ~seed:salt ~rate_per_thousand:80
        storage_modes.(mode mod Array.length storage_modes);
      c.fault_windows <- c.fault_windows + 1;
      c.fault_steps_left <- 8
    end
  | Replica_destroy { home; replica } -> destroy_replica c ~home ~replica
  | Replica_corrupt { home; replica; file; salt } ->
    corrupt_replica c ~home ~replica ~file ~salt
  | Cache_destroy { replica } -> destroy_cache_replica c ~replica
  | Cache_corrupt { replica; file; salt } ->
    corrupt_cache_replica c ~replica ~file ~salt
  | Split_brain { victim } ->
    c.pending_splits <- c.pending_splits @ [ victim mod cfg.shards ]

let note_states c =
  List.iter
    (fun i ->
      match Supervisor.shard_state c.sup i with
      | `Restarting | `Dead -> c.killed <- add_distinct i c.killed
      | `Running ->
        if List.mem i c.killed then c.recovered <- add_distinct i c.recovered)
    (List.init c.cfg.shards Fun.id)

let step c ~step_index counters =
  let cfg = c.cfg in
  (* close an elapsed storage-fault window *)
  if c.fault_steps_left > 0 then begin
    c.fault_steps_left <- c.fault_steps_left - 1;
    if c.fault_steps_left = 0 then Fault.disarm_storage ()
  end;
  (* fire this step's scheduled faults *)
  List.iter (fun s -> if s.at = step_index then fire c s.ev) c.schedule;
  (* split-brain windows that found no live worker retry each step *)
  c.pending_splits <- List.filter (fun v -> not (try_wedge c v)) c.pending_splits;
  drive_zombies c;
  (* workload: a couple of ops against random homes; ops to a stalled
     shard time out instead of completing (a wedged worker does not
     answer) *)
  let n_ops = 1 + Random.State.int c.rng 2 in
  for _ = 1 to n_ops do
    let home = List.nth c.expects (Random.State.int c.rng (List.length c.expects)) in
    let target = Supervisor.owner_of c.sup (fst home) in
    let target_stalled =
      match target with Some i -> c.stalled.(i) > 0 | None -> false
    in
    if target = None then
      (* the whole fleet is dead: the home has no owner left, so the
         op degrades instead of routing *)
      c.degraded <- c.degraded + 1
    else if target_stalled then c.stalled_timeouts <- c.stalled_timeouts + 1
    else begin
      let r = Random.State.int c.rng 100 in
      let res =
        if r < 45 then op_install c home
        else if r < 75 then op_deliver c home
        else if r < 85 then op_decision c home
        else if r < 90 then op_quarantine c home
        else if r < 90 + (cfg.audit_per_thousand / 10) then op_audit c home
        else op_deliver c home
      in
      (match res with
      | `Acked_install -> counters.(0) <- counters.(0) + 1
      | `Acked_config -> counters.(1) <- counters.(1) + 1
      | `Acked_decision -> counters.(2) <- counters.(2) + 1
      | `Acked_quarantine -> counters.(3) <- counters.(3) + 1
      | `Other -> ())
    end
  done;
  (* heartbeats from every live, un-stalled shard; then advance time
     and run a supervision pass *)
  List.iter
    (fun i ->
      if c.stalled.(i) > 0 then c.stalled.(i) <- c.stalled.(i) - 1
      else Supervisor.beat c.sup i)
    (List.init cfg.shards Fun.id);
  c.now := !(c.now) +. cfg.step_ms;
  Supervisor.tick c.sup;
  note_states c

(* -- final verification ------------------------------------------------------- *)

let subset ~of_:ys xs = List.for_all (fun x -> List.mem x ys) xs

type recovered_home = {
  r_installed : string list;
  r_decisions : (string * Policy.decision) list;
  r_quarantined : string list;
  r_last_seq : int;
  r_text : string;
  r_text2 : string;  (** second, independent recovery *)
  r_honest_damage : bool;  (** some recovery surfaced damage for this home *)
}

let recover_home ~fleet_dir ~replicas ~campaign_damage id =
  let dirs = Shard.home_dirs ~fleet_dir ~replicas id in
  let dir = List.hd dirs and extra = List.tl dirs in
  (* first open repairs (truncates torn tails, quarantines corrupt
     frames, merges the replicas); the determinism check is over the
     two subsequent recoveries of the repaired journal *)
  let h1, r1 = Home.open_ ~fsync:false ~replicas:extra ~dir () in
  let r_installed =
    List.map (fun (a : Rule.smartapp) -> a.Rule.name) (Home.installed_apps h1)
  in
  let r_decisions = Policy.decisions (Install_flow.policies (Home.flow h1)) in
  let r_quarantined = List.map fst (Home.quarantined h1) in
  let r_last_seq = Home.last_seq h1 in
  let r_text = Home.state_text h1 in
  Home.close h1;
  let h2, r2 = Home.open_ ~fsync:false ~replicas:extra ~dir () in
  let r_text2 = Home.state_text h2 in
  Home.close h2;
  (* With replication the loss carve-out tightens: a damaged replica
     whose records survived on a sibling lost nothing (the merge heals
     it), so damage is honest only when some file's every replica was
     damaged or missing. For a single replica this is the old rule. *)
  let damaged (r : Home.recovery_report) =
    (r.Home.quarantined > 0 && r.Home.all_replicas_damaged)
    || r.Home.skipped_events > 0
  in
  (* The quarantine sidecar is the durable form of the same evidence:
     an in-memory recovery report can be lost when the recovering open
     itself crashes on a later home (the journal repair it already
     performed persists, so the retry replays clean), but the sidecar
     written by that repair survives any number of restarts. Every
     replica directory must show corruption for the carve-out to hold. *)
  let sidecar_corruption =
    List.for_all (fun d -> Home.surfaced_corruption ~dir:d () > 0) dirs
  in
  {
    r_installed;
    r_decisions;
    r_quarantined;
    r_last_seq;
    r_text;
    r_text2;
    r_honest_damage =
      campaign_damage || damaged r1 || damaged r2 || sidecar_corruption;
  }

let cache_scrub_text (r : Scrub.home_report) =
  Printf.sprintf
    "converged=%b repaired=%d recreated=%d quarantined=%d healed=%d \
     patched-frames=%d repair-bytes=%d"
    r.Scrub.converged r.Scrub.repaired_replicas r.Scrub.recreated_replicas
    r.Scrub.frames_quarantined r.Scrub.records_healed r.Scrub.patched_frames
    r.Scrub.repair_bytes

(* Cache invariants, against [live] (the dump captured just before the
   final shutdown) and [totals] (the summed shard counters):
   - no stale-epoch cache byte: every zombie probe was fenced, no
     [~chaos/] record reached any replica file and none survives into a
     warm reopen, and no frame is epoch-stamped below a predecessor;
   - two independent reopens of the cache journal replay to
     byte-identical state (the kill-mid-cache-write case: whatever
     prefix survived, it replays deterministically);
   - no poisoned entry: a reopened entry for a key the live fleet held
     never flips verdict kind (torn/corrupt frames must be dropped, not
     decoded into a different verdict);
   - no conflicts: no fresh solve ever contradicted a cached decisive
     verdict — the abstraction-soundness alarm stayed silent;
   - warm restart: the reopened cache holds entries whenever any entry
     was durably journaled (honest-loss carve-out for surfaced frame
     damage, same as the home-journal invariants);
   - warm equals cold: re-auditing every home against the warm reopened
     cache renders byte-identically to an uncached audit;
   - cache-scrub convergence and idempotence (from the pre-shutdown
     {!Supervisor.scrub_cache} passes). *)
let verify_cache c ~fleet_dir ~live ~totals ~cscrub ~cscrub2 =
  match (live, totals) with
  | None, _ | _, None -> []
  | Some live, Some (totals : Vcache.counters) ->
    let cdirs = cache_dirs ~fleet_dir ~replicas:c.cfg.replicas in
    (* durable stale-write evidence, scanned before any reopen rewrites
       the replica files *)
    let chaos_records, cache_regressions =
      List.fold_left
        (fun acc d ->
          List.fold_left
            (fun (ck, er) f ->
              let sc = Journal.scan (Filename.concat d f) in
              ( ck
                + List.length
                    (List.filter (contains ~sub:"~chaos/") sc.Journal.records),
                er + sc.Journal.epoch_regressions ))
            acc cache_files)
        (0, 0) cdirs
    in
    let dir = List.hd cdirs and crep = List.tl cdirs in
    let st1 = Vcache.open_store ~fsync:false ~replicas:crep ~dir () in
    let d1 = Vcache.dump st1 in
    let dmg = Vcache.replay_damage st1 in
    let n1 = Vcache.entries st1 in
    Vcache.close_store st1;
    let st2 = Vcache.open_store ~fsync:false ~replicas:crep ~dir () in
    let d2 = Vcache.dump st2 in
    Vcache.close_store st2;
    let chaos_dump = List.filter (fun (k, _) -> contains ~sub:"~chaos/" k) d1 in
    let kind e = if e = "" then '?' else e.[0] in
    let poisoned =
      List.filter
        (fun (k, e) ->
          match List.assoc_opt k live with
          | Some le -> kind e <> kind le
          | None -> false)
        d1
    in
    (* warm-vs-cold: the reopened cache must never change an audit *)
    let stw = Vcache.open_store ~fsync:false ~replicas:crep ~dir () in
    let hw = Vcache.attach stw ~owner:"warm-audit" in
    let warm_bad =
      List.filter_map
        (fun (id, _) ->
          let dirs = Shard.home_dirs ~fleet_dir ~replicas:c.cfg.replicas id in
          let hdir = List.hd dirs and extra = List.tl dirs in
          let hwarm, _ =
            Home.open_ ~fsync:false ~replicas:extra
              ~configure:(Vcache.configure hw) ~dir:hdir ()
          in
          let warm = Home.audit_text hwarm in
          Home.close hwarm;
          let hcold, _ = Home.open_ ~fsync:false ~replicas:extra ~dir:hdir () in
          let cold = Home.audit_text hcold in
          Home.close hcold;
          if warm = cold then None else Some id)
        c.expects
    in
    Vcache.close_store stw;
    let inv name ok detail = { name; ok; detail } in
    let list = function [] -> "" | ids -> ": " ^ String.concat "," ids in
    let scrub_invs =
      match (cscrub, cscrub2) with
      | Some (r1 : Scrub.home_report), Some (r2 : Scrub.home_report) ->
        [
          inv "cache-scrub-convergence" r1.Scrub.converged (cache_scrub_text r1);
          inv "cache-scrub-idempotent"
            (r2.Scrub.healthy && r2.Scrub.converged && r2.Scrub.repair_bytes = 0)
            (cache_scrub_text r2);
        ]
      | _ -> []
    in
    [
      inv "cache-no-stale-epoch-byte"
        (c.cache_probe_accepted = 0 && chaos_records = 0 && chaos_dump = []
        && cache_regressions = 0)
        (Printf.sprintf
           "%d probe(s) fenced, %d accepted, %d chaos record(s) on disk, %d \
            reopened, %d epoch regression(s)"
           c.cache_probe_fenced c.cache_probe_accepted chaos_records
           (List.length chaos_dump) cache_regressions);
      inv "cache-replay-determinism" (d1 = d2)
        (Printf.sprintf "%d entries reopened twice, %d damaged frame(s) dropped"
           (List.length d1) dmg);
      inv "cache-no-poisoned-entry" (poisoned = [])
        (Printf.sprintf "%d reopened entries checked against live state%s"
           (List.length d1)
           (match poisoned with
           | [] -> ""
           | ps -> ": " ^ String.concat "," (List.map fst ps)));
      inv "cache-no-conflicts"
        (totals.Vcache.conflicts = 0)
        (Printf.sprintf "hits=%d misses=%d conflicts=%d" totals.Vcache.hits
           totals.Vcache.misses totals.Vcache.conflicts);
      inv "cache-warm-restart"
        (n1 > 0 || totals.Vcache.inserts = 0 || dmg > 0)
        (Printf.sprintf "entries=%d inserts=%d evicts=%d journal-drops=%d" n1
           totals.Vcache.inserts totals.Vcache.evicts totals.Vcache.journal_drops);
      inv "cache-warm-equals-cold" (warm_bad = [])
        (Printf.sprintf "%d home(s) audited warm vs cold%s"
           (List.length c.expects) (list warm_bad));
    ]
    @ scrub_invs

let verify c ~fleet_dir =
  let campaign_damaged =
    (* homes whose mid-campaign recoveries already surfaced possible
       loss — damage on every replica, or undecodable records *)
    List.filter_map
      (fun (id, (r : Home.recovery_report)) ->
        if
          (r.Home.quarantined > 0 && r.Home.all_replicas_damaged)
          || r.Home.skipped_events > 0
        then Some id
        else None)
      (Supervisor.recoveries c.sup)
  in
  let recovered =
    List.map
      (fun (id, ex) ->
        ( id,
          ex,
          recover_home ~fleet_dir ~replicas:c.cfg.replicas
            ~campaign_damage:(List.mem id campaign_damaged)
            id ))
      c.expects
  in
  let inv name ok detail = { name; ok; detail } in
  let failures pred =
    List.filter_map (fun (id, ex, r) -> if pred ex r then None else Some id) recovered
  in
  let inv1_bad =
    failures (fun ex r ->
        r.r_honest_damage
        || (subset ~of_:r.r_installed ex.installed && ex.acked_seq <= r.r_last_seq))
  in
  let inv2_bad = failures (fun _ r -> r.r_text = r.r_text2) in
  let inv3_bad =
    failures (fun ex r ->
        r.r_honest_damage
        || (subset ~of_:r.r_quarantined ex.quarantined
           && subset ~of_:r.r_decisions ex.decisions))
  in
  let honest = List.length (List.filter (fun (_, _, r) -> r.r_honest_damage) recovered) in
  let list = function [] -> "" | ids -> ": " ^ String.concat "," ids in
  [
    inv "no-acked-loss" (inv1_bad = [])
      (Printf.sprintf
         "%d installs, %d configs acked across %d homes; %d home(s) with \
          surfaced damage%s"
         (List.fold_left (fun a (_, ex, _) -> a + List.length ex.installed) 0 recovered)
         (List.fold_left (fun a (_, ex, _) -> a + ex.acked_seq) 0 recovered)
         (List.length recovered) honest (list inv1_bad));
    inv "replay-determinism" (inv2_bad = [])
      (Printf.sprintf "%d homes recovered twice%s" (List.length recovered)
         (list inv2_bad));
    inv "quarantine-decision-survival" (inv3_bad = [])
      (Printf.sprintf "%d decisions, %d quarantines acked%s"
         (List.fold_left (fun a (_, ex, _) -> a + List.length ex.decisions) 0 recovered)
         (List.fold_left (fun a (_, ex, _) -> a + List.length ex.quarantined) 0 recovered)
         (list inv3_bad));
    inv "no-false-clean-bill" (c.false_clean = 0)
      (Printf.sprintf "%d outcome(s) checked, %d false clean" c.outcomes_checked
         c.false_clean);
  ]

(* -- entry point -------------------------------------------------------------- *)

let run ?(config = default_config) ?schedule ~dir () =
  if config.shards < 1 || config.homes < 1 || config.steps < 1 then
    invalid_arg "Chaos.run: shards, homes and steps must be positive";
  let schedule =
    match schedule with Some s -> s | None -> schedule_of_config config
  in
  let rng = Random.State.make [| 0xc4a05; config.seed |] in
  let synth_homes = Corpus.synth ~seed:config.seed ~n_homes:config.homes in
  let now = ref 0.0 in
  let clock () = !now in
  let sup_config =
    {
      Supervisor.default_config with
      Supervisor.shards = config.shards;
      replicas = config.replicas;
      heartbeat_interval_ms = config.step_ms *. 2.0;
      miss_threshold = 3;
      failure_threshold = 2;
      reset_timeout_ms = config.step_ms *. 4.0;
      half_open_probes = 2;
      restart_budget = 6;
      backoff_base_ms = config.step_ms;
      backoff_cap_ms = config.step_ms *. 10.0;
      seed = config.seed;
      fsync = false;
      clock;
      broker = { Broker.default_config with Broker.clock = clock };
      vcache = config.vcache;
    }
  in
  let sup =
    Supervisor.create ~config:sup_config ~dir
      ~homes:(List.map (fun h -> h.Synth.id) synth_homes)
      ()
  in
  let c =
    {
      cfg = config;
      dir;
      sup;
      schedule;
      rng;
      now;
      expects =
        List.map
          (fun h ->
            ( h.Synth.id,
              {
                synth = h;
                next_app = 0;
                next_seq = 0;
                installed = [];
                acked_seq = 0;
                decisions = [];
                quarantined = [];
                threat_ids = [];
              } ))
          synth_homes;
      stalled = Array.make config.shards 0;
      pending_splits = [];
      zombies = [];
      zombie_rejected = 0;
      zombie_accepted = 0;
      cache_probe_fenced = 0;
      cache_probe_accepted = 0;
      replicas_destroyed = 0;
      replicas_corrupted = 0;
      cache_destroyed = 0;
      cache_corrupted = 0;
      fault_steps_left = 0;
      fault_windows = 0;
      ops = 0;
      busy = 0;
      degraded = 0;
      stalled_timeouts = 0;
      served_while_impaired = 0;
      false_clean = 0;
      outcomes_checked = 0;
      killed = [];
      recovered = [];
    }
  in
  let counters = Array.make 4 0 in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.disarm_storage ();
      Fault.reset_sleeper ();
      Budget.reset_clock ())
  @@ fun () ->
  (* injected stalls advance the campaign's virtual clock instead of
     blocking real time, and solver deadlines poll the same clock — a
     whole campaign with stall windows costs no wall-clock sleeps *)
  Fault.set_sleeper (fun ms -> now := !now +. ms);
  Budget.set_clock (fun () -> !now /. 1000.0);
  for step_index = 1 to config.steps do
    step c ~step_index counters
  done;
  Fault.disarm_storage ();
  c.fault_steps_left <- 0;
  (* settle: let every pending restart complete (or exhaust its budget
     and rebalance) before verifying *)
  let settled = ref 0 in
  while
    !settled < 200
    && List.exists
         (fun i -> Supervisor.shard_state c.sup i = `Restarting)
         (List.init config.shards Fun.id)
  do
    incr settled;
    c.now := !(c.now) +. config.step_ms;
    Supervisor.beat_all c.sup;
    Supervisor.tick c.sup;
    note_states c
  done;
  (* split-brain epilogue: give every zombie one last revived write
     attempt, then close its writers before anything rewrites files *)
  drive_zombies c;
  List.iter (fun z -> try Shard.close z with _ -> ()) c.zombies;
  (* durable fingerprint of any accepted stale append: a frame stamped
     below the running epoch maximum. Scanned before scrub and final
     recovery rewrite (and so re-stamp) the files. *)
  let epoch_regressions =
    List.fold_left
      (fun acc (id, _) ->
        List.fold_left
          (fun acc d ->
            List.fold_left
              (fun acc f -> acc + (Journal.scan f).Journal.epoch_regressions)
              acc
              [ Filename.concat d "snapshot"; Filename.concat d "journal" ])
          acc
          (Shard.home_dirs ~fleet_dir:dir ~replicas:config.replicas id))
      0 c.expects
  in
  let scrub = Supervisor.scrub c.sup in
  let scrub_second = Supervisor.scrub c.sup in
  let cache_scrub = Supervisor.scrub_cache c.sup in
  let cache_scrub_second = Supervisor.scrub_cache c.sup in
  let stats = Supervisor.stats c.sup in
  let live_cache = Option.map Vcache.dump (Supervisor.vcache_store c.sup) in
  Supervisor.close c.sup;
  let inv name ok detail = { name; ok; detail } in
  let replication_invariants =
    [
      inv "no-stale-epoch-accepted"
        (c.zombie_accepted = 0 && epoch_regressions = 0)
        (Printf.sprintf
           "%d zombie append(s) fenced, %d accepted, %d epoch regression(s) on \
            disk, %d stale replies"
           c.zombie_rejected c.zombie_accepted epoch_regressions
           stats.Supervisor.stale_replies);
      inv "scrub-convergence"
        (scrub.Scrub.unconverged = 0)
        (Scrub.counters_text scrub);
      inv "scrub-idempotent"
        (scrub_second.Scrub.unconverged = 0
        && scrub_second.Scrub.repaired_homes = 0
        && scrub_second.Scrub.healthy = scrub_second.Scrub.homes)
        (Scrub.counters_text scrub_second);
    ]
  in
  let invariants =
    verify c ~fleet_dir:dir
    @ replication_invariants
    @ verify_cache c ~fleet_dir:dir ~live:live_cache
        ~totals:stats.Supervisor.cache ~cscrub:cache_scrub
        ~cscrub2:cache_scrub_second
  in
  {
    config;
    schedule;
    ops = c.ops;
    installs_acked = counters.(0);
    configs_acked = counters.(1);
    decisions_acked = counters.(2);
    quarantines_acked = counters.(3);
    degraded_replies = c.degraded;
    busy_replies = c.busy;
    stalled_timeouts = c.stalled_timeouts;
    served_while_impaired = c.served_while_impaired;
    fault_windows = c.fault_windows;
    replicas_destroyed = c.replicas_destroyed;
    replicas_corrupted = c.replicas_corrupted;
    cache_destroyed = c.cache_destroyed;
    cache_corrupted = c.cache_corrupted;
    zombie_rejected = c.zombie_rejected;
    zombie_accepted = c.zombie_accepted;
    cache_probe_fenced = c.cache_probe_fenced;
    cache_probe_accepted = c.cache_probe_accepted;
    scrub;
    scrub_second;
    cache_scrub;
    cache_scrub_second;
    stats;
    shards_killed = List.length c.killed;
    shards_recovered = List.length c.recovered;
    invariants;
  }

(* -- the shrinker ------------------------------------------------------------- *)

let violates r ~invariant =
  List.exists (fun i -> i.name = invariant && not i.ok) r.invariants

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

let shrink ?(config = smoke_config) ?(enforce_fence = true) ~dir ~invariant
    schedule =
  let trials = ref 0 in
  let fails sched =
    incr trials;
    let tdir = Filename.concat dir (Printf.sprintf "trial-%04d" !trials) in
    Rjournal.mkdirs tdir;
    let campaign () = run ~config ~schedule:sched ~dir:tdir () in
    let r =
      if enforce_fence then campaign ()
      else begin
        (* the deliberately reintroduced split-brain bug: trials run
           with the fence disabled, restored on every exit path *)
        Fence.set_enforced false;
        Fun.protect ~finally:(fun () -> Fence.set_enforced true) campaign
      end
    in
    violates r ~invariant
  in
  if not (fails schedule) then
    invalid_arg "Chaos.shrink: the schedule does not violate the invariant";
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
  let minimal = ddmin schedule 2 in
  (minimal, !trials)

(* -- rendering ---------------------------------------------------------------- *)

let render r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "chaos campaign: seed=%d shards=%d homes=%d steps=%d\n" r.config.seed
       r.config.shards r.config.homes r.config.steps);
  let count p = List.length (List.filter (fun s -> p s.ev) r.schedule) in
  Buffer.add_string b
    (Printf.sprintf
       "schedule: events=%d kills=%d stalls=%d storage-windows=%d \
        replica-loss=%d replica-corrupt=%d cache-loss=%d cache-corrupt=%d \
        splits=%d\n"
       (List.length r.schedule)
       (count (function Kill _ -> true | _ -> false))
       (count (function Stall _ -> true | _ -> false))
       (count (function Storage_window _ -> true | _ -> false))
       (count (function Replica_destroy _ -> true | _ -> false))
       (count (function Replica_corrupt _ -> true | _ -> false))
       (count (function Cache_destroy _ -> true | _ -> false))
       (count (function Cache_corrupt _ -> true | _ -> false))
       (count (function Split_brain _ -> true | _ -> false)));
  Buffer.add_string b
    (Printf.sprintf
       "workload: ops=%d acked installs=%d configs=%d decisions=%d \
        quarantines=%d busy=%d degraded=%d stalled-timeouts=%d\n"
       r.ops r.installs_acked r.configs_acked r.decisions_acked
       r.quarantines_acked r.busy_replies r.degraded_replies r.stalled_timeouts);
  Buffer.add_string b
    (Printf.sprintf
       "faults: windows=%d kills=%d restarts=%d breaker-trips=%d \
        rebalanced-homes=%d dead-shards=%d\n"
       r.fault_windows r.stats.Supervisor.kills r.stats.Supervisor.restarts
       r.stats.Supervisor.breaker_trips r.stats.Supervisor.rebalanced_homes
       r.stats.Supervisor.dead_shards);
  Buffer.add_string b
    (Printf.sprintf
       "isolation: shards-killed=%d shards-recovered=%d served-while-impaired=%d\n"
       r.shards_killed r.shards_recovered r.served_while_impaired);
  Buffer.add_string b
    (Printf.sprintf
       "replication: replicas=%d destroyed=%d corrupted=%d split-brains=%d \
        zombie-rejected=%d zombie-accepted=%d stale-replies=%d\n"
       r.config.replicas r.replicas_destroyed r.replicas_corrupted
       r.config.split_brains r.zombie_rejected r.zombie_accepted
       r.stats.Supervisor.stale_replies);
  Buffer.add_string b (Printf.sprintf "scrub:   %s\n" (Scrub.counters_text r.scrub));
  Buffer.add_string b
    (Printf.sprintf "rescrub: %s\n" (Scrub.counters_text r.scrub_second));
  (match r.stats.Supervisor.cache with
  | None -> ()
  | Some cc ->
    Buffer.add_string b
      (Printf.sprintf "vcache: entries=%d %s\n" r.stats.Supervisor.cache_entries
         (Homeguard_vcache.Vcache.counters_text cc));
    Buffer.add_string b
      (Printf.sprintf
         "cache-replication: destroyed=%d corrupted=%d probes-fenced=%d \
          probes-accepted=%d\n"
         r.cache_destroyed r.cache_corrupted r.cache_probe_fenced
         r.cache_probe_accepted);
    (match r.cache_scrub with
    | Some cs ->
      Buffer.add_string b
        (Printf.sprintf "cache-scrub:   %s\n" (cache_scrub_text cs))
    | None -> ());
    (match r.cache_scrub_second with
    | Some cs ->
      Buffer.add_string b
        (Printf.sprintf "cache-rescrub: %s\n" (cache_scrub_text cs))
    | None -> ()));
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "invariant %-28s %s (%s)\n" i.name
           (if i.ok then "OK" else "VIOLATED")
           i.detail))
    r.invariants;
  Buffer.add_string b
    (if passed r then "campaign passed\n" else "campaign FAILED\n");
  Buffer.contents b
