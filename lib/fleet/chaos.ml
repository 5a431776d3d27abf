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
    be re-run with any {e subset} of its fault events: {!Repro.shrink}
    delta-debugs a failing schedule down to a minimal reproduction. *)

module Home = Homeguard_store.Home
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Rjournal = Homeguard_store.Rjournal
module Surface = Homeguard_store.Surface
module Broker = Homeguard_serve.Broker
module Shed = Homeguard_serve.Shed
module Install_flow = Homeguard_frontend.Install_flow
module Policy = Homeguard_handling.Policy
module Detector = Homeguard_detector.Detector
module Fault = Homeguard_solver.Fault
module Journal = Homeguard_store.Journal
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
  fault_window_per_thousand : int;
      (** chance per step to open a storage-fault window
          (crash/torn/flip cycling) for the next few steps *)
  vcache : bool;  (** shared verdict cache on + cache invariants *)
  replicas : int;  (** journal replicas per home *)
}

(* The settings every campaign runs with, one value each; a repro
   writes them on its config line and refuses any other value. *)

let step_ms = 50.0 (* simulated clock advance per step *)

(* deterministic kills at evenly spaced steps, rotating victims —
   guarantees the campaign exercises kill+recover even at small step
   counts *)
let forced_kills = 3

let kill_per_thousand = 5 (* extra random kills, per step *)
let stall_per_thousand = 8 (* wedge a shard past its heartbeat window *)
let audit_per_thousand = 40 (* background re-audit + drain *)

(* chance per step to destroy one non-primary replica of a random home
   (the primary always survives destruction windows, so "some replica
   survives" holds by construction; primary damage comes from the
   corruption window and storage faults) *)
let replica_loss_per_thousand = 12

(* chance per step to flip one byte in one replica file of a random
   home — any replica, including the primary *)
let replica_corrupt_per_thousand = 12

(* the same two chances for the shared verdict cache's replicas *)
let cache_loss_per_thousand = 10
let cache_corrupt_per_thousand = 10

(* forced stall-then-revive windows: wedge a shard (its worker keeps its
   journal writers {e and} its verdict-cache handle), let the fleet
   rebalance, then drive the zombie's handles expecting every append —
   home journal and cache alike — fenced *)
let split_brains = 1

(* keyed by their repro config names *)
let fixed_settings =
  [
    ("step-ms", Printf.sprintf "%g" step_ms);
    ("forced-kills", string_of_int forced_kills);
    ("kill", string_of_int kill_per_thousand);
    ("stall", string_of_int stall_per_thousand);
    ("audit", string_of_int audit_per_thousand);
    ("replica-loss", string_of_int replica_loss_per_thousand);
    ("replica-corrupt", string_of_int replica_corrupt_per_thousand);
    ("cache-loss", string_of_int cache_loss_per_thousand);
    ("cache-corrupt", string_of_int cache_corrupt_per_thousand);
    ("split-brains", string_of_int split_brains);
  ]

let default_config =
  {
    seed = 42;
    shards = 4;
    homes = 24;
    steps = 400;
    fault_window_per_thousand = 25;
    vcache = true;
    replicas = 2;
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

let storage_modes = [| Journal.Crash; Journal.Torn; Journal.Flip |]

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
    (List.init forced_kills (fun i ->
         (config.steps * (i + 1) / (forced_kills + 1), i mod config.shards)));
  (* split-brain windows sit in the first half of the campaign, while
     the slots still have restart budget to grant successor epochs *)
  List.iter
    (fun (at, victim) -> emit at (Split_brain { victim }))
    (List.init split_brains (fun i ->
         ( config.steps * (i + 1) / (2 * (split_brains + 1)),
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
    if Random.State.int rng 1000 < kill_per_thousand then
      emit at (Kill { victim = Random.State.int rng config.shards });
    if Random.State.int rng 1000 < stall_per_thousand then
      emit at (Stall { victim = Random.State.int rng config.shards });
    if
      config.replicas > 1
      && Random.State.int rng 1000 < replica_loss_per_thousand
    then
      emit at
        (Replica_destroy
           {
             home = Random.State.int rng config.homes;
             replica = Random.State.int rng (config.replicas - 1);
           });
    if Random.State.int rng 1000 < replica_corrupt_per_thousand then
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
      && Random.State.int rng 1000 < cache_loss_per_thousand
    then
      emit at (Cache_destroy { replica = Random.State.int rng (config.replicas - 1) });
    if config.vcache && Random.State.int rng 1000 < cache_corrupt_per_thousand
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

(* The campaign's tallies: the run updates this record in place and
   the report returns it. *)
type tally = {
  mutable ops : int;
  mutable installs_acked : int;
  mutable configs_acked : int;
  mutable decisions_acked : int;
  mutable quarantines_acked : int;
  mutable degraded_replies : int;  (** Unavailable/Crashed routing outcomes *)
  mutable busy_replies : int;
  mutable stalled_timeouts : int;
  mutable served_while_impaired : int;
      (** ops completed by healthy shards while some shard was down *)
  mutable fault_windows : int;
  mutable replicas_destroyed : int;  (** replica files removed by loss windows *)
  mutable replicas_corrupted : int;  (** replica files bit-flipped by corruption windows *)
  mutable cache_destroyed : int;  (** cache replica files removed *)
  mutable cache_corrupted : int;  (** cache replica files bit-flipped *)
  mutable zombie_rejected : int;  (** fenced appends the split-brain zombies attempted *)
  mutable zombie_accepted : int;  (** must be 0: stale appends that reached the disk *)
  mutable cache_probe_fenced : int;  (** zombie cache writes refused at the fence *)
  mutable cache_probe_accepted : int;  (** must be 0: stale cache writes gone durable *)
}

type report = {
  config : config;
  schedule : scheduled list;  (** the fault plan this campaign executed *)
  tally : tally;
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
  tally : tally;
  mutable fault_steps_left : int;
  mutable false_clean : int;
  mutable outcomes_checked : int;
  mutable killed : int list;  (** distinct shards seen down *)
  mutable recovered : int list;  (** distinct killed shards seen back up *)
}

let add_distinct x xs = if List.mem x xs then xs else x :: xs

let impaired c =
  List.exists
    (fun i -> Supervisor.shard_state c.sup i <> `Running)
    (List.init c.cfg.shards Fun.id)

(* One outcome checked for invariant 4; [false_clean] when it was
   classified conclusive although its work was cut. *)
let check_outcome c ~false_clean =
  c.outcomes_checked <- c.outcomes_checked + 1;
  if false_clean then c.false_clean <- c.false_clean + 1

(* Structural invariant-4 accounting: every reply passes through here. *)
let classify c reply =
  c.tally.ops <- c.tally.ops + 1;
  let was_impaired = impaired c in
  (match reply with
  | Supervisor.Done _ -> if was_impaired then
      c.tally.served_while_impaired <- c.tally.served_while_impaired + 1
  | Supervisor.Unavailable _ | Supervisor.Crashed _ ->
    c.tally.degraded_replies <- c.tally.degraded_replies + 1;
    check_outcome c ~false_clean:(Shed.conclusive (Supervisor.to_outcome reply)));
  reply

let check_audit_outcome c = function
  | Broker.Audited { result; degraded; _ } ->
    check_outcome c ~false_clean:(result.Detector.shed > 0 && not degraded)
  | Broker.Shed_job _ -> check_outcome c ~false_clean:false

(* -- workload ops ------------------------------------------------------------- *)

(* Every workload reply goes through [classify]; a degraded one
   acknowledges nothing, so only a [Done] value reaches [k]. *)
let on_done c reply k =
  match classify c reply with
  | Supervisor.Done { value; shard } -> k value shard
  | Supervisor.Unavailable _ | Supervisor.Crashed _ -> ()

let op_install c (id, ex) =
  if ex.next_app < List.length ex.synth.Synth.apps then begin
    let app = List.nth ex.synth.Synth.apps ex.next_app in
    let name = app.App_entry.name and source = app.App_entry.source in
    on_done c
      (Supervisor.run c.sup ~home:id (fun sh ->
           let broker = Shard.broker sh in
           match Broker.install broker ~home:id ~name ~source () with
           | Broker.Proposed { report; degraded; _ } ->
             Home.decide (Broker.home broker id) Install_flow.Keep;
             `Kept (report, degraded)
           | Broker.Busy { retry_after_ms } -> `Busy retry_after_ms
           | Broker.Quarantined_app _ -> `Refused
           | Broker.Install_failed { quarantined; _ } -> `Failed quarantined))
      (fun value _ ->
        match value with
        | `Kept (report, degraded) ->
          check_outcome c
            ~false_clean:(report.Install_flow.audit.Detector.shed > 0 && not degraded);
          ex.installed <- add_distinct name ex.installed;
          ex.next_app <- ex.next_app + 1;
          ex.threat_ids <-
            List.fold_left
              (fun acc th -> add_distinct (Policy.threat_id th) acc)
              ex.threat_ids report.Install_flow.threats;
          c.tally.installs_acked <- c.tally.installs_acked + 1
        | `Busy _ -> c.tally.busy_replies <- c.tally.busy_replies + 1
        | `Failed quarantined ->
          if quarantined then ex.quarantined <- add_distinct name ex.quarantined;
          ex.next_app <- ex.next_app + 1 (* don't wedge on a poisoned app *)
        | `Refused -> ex.next_app <- ex.next_app + 1)
  end

let op_deliver c (id, ex) =
  match ex.synth.Synth.configs with
  | [] -> ()
  | configs ->
    let uri = List.nth configs (ex.next_seq mod List.length configs) in
    let seq = ex.next_seq + 1 in
    on_done c (Supervisor.deliver c.sup ~home:id ~seq uri) (fun value _ ->
        match value with
        | Home.Accepted _ ->
          ex.next_seq <- seq;
          ex.acked_seq <- max ex.acked_seq seq;
          c.tally.configs_acked <- c.tally.configs_acked + 1
        | Home.Malformed _ -> ex.next_seq <- seq)

(* A handling write on one randomly picked entry of [entries]: [act]
   draws whatever else the write needs and returns it with the ledger
   update to make once the fleet acknowledges it. *)
let op_handling c id entries act =
  match entries with
  | [] -> ()
  | xs ->
    let write, acked = act (List.nth xs (Random.State.int c.rng (List.length xs))) in
    on_done c
      (Supervisor.run c.sup ~home:id (fun sh -> write (Broker.home (Shard.broker sh) id)))
      (fun () _ -> acked ())

let op_decision c (id, ex) =
  op_handling c id ex.threat_ids (fun tid ->
      let d = if Random.State.bool c.rng then Policy.Allow else Policy.Confirm in
      ( (fun h -> Home.set_decision h tid d),
        fun () ->
          ex.decisions <- (tid, d) :: List.remove_assoc tid ex.decisions;
          c.tally.decisions_acked <- c.tally.decisions_acked + 1 ))

let op_quarantine c (id, ex) =
  op_handling c id ex.installed (fun app ->
      ( (fun h -> Home.quarantine h ~app ~reason:"chaos-injected"),
        fun () ->
          ex.quarantined <- add_distinct app ex.quarantined;
          c.tally.quarantines_acked <- c.tally.quarantines_acked + 1 ))

let op_audit c (id, _ex) =
  on_done c (Supervisor.submit_audit c.sup ~home:id ()) (fun value shard ->
      match value with
      | Ok _ ->
        on_done c (Supervisor.drain c.sup ~shard) (fun outcomes _ ->
            List.iter (check_audit_outcome c) outcomes)
      | Error _ -> c.tally.busy_replies <- c.tally.busy_replies + 1)

(* -- damage windows ----------------------------------------------------------- *)

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

let remove_files paths =
  let present = List.filter Sys.file_exists paths in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) present;
  present <> []

(* Destroy one non-primary replica of a surface — disk death. A live
   writer keeps appending to the unlinked inodes; the next recovery or
   scrub recreates the replica from a surviving sibling. Quarantine
   sidecars are left alone: they are the durable damage evidence the
   loss invariants consult. *)
let destroy_replica surface ~replica =
  match Surface.dirs surface with
  | [] | [ _ ] -> false
  | _ :: victims ->
    remove_files (Surface.replica_files surface (1 + (replica mod List.length victims)))

(* Flip one byte in one replica file of a surface — bit rot. May hit
   the primary: read-repair must heal whichever copy is damaged. *)
let corrupt_replica surface ~replica ~file ~salt =
  let n = List.length (Surface.dirs surface) in
  let files = Surface.replica_files surface (replica mod n) in
  flip_byte (List.nth files (file mod List.length files)) ~salt

let home_surface c id =
  Surface.at Surface.Home (Shard.home_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas id)

let home_id c home = fst (List.nth c.expects (home mod List.length c.expects))

(* The verdict cache is a durable surface like any home, so it takes
   the same damage: destruction spares the primary, corruption does
   not. *)
let cache_surface c =
  Surface.at Surface.Cache (Shard.cache_dirs ~fleet_dir:c.dir ~replicas:c.cfg.replicas)

(* One revived write from a zombie handle holding [epoch] under fence
   [key]. If no successor epoch was ever granted (the slot died past its
   restart budget before any reopen), grant it now: ownership always
   moves before a wedged worker revives, never the other way around.
   [true] when the fence refused the write; a storage fault that killed
   it after the fence passed (it is checked first) still let a stale
   write through. *)
let zombie_write_fenced ~key ~epoch write =
  if Fence.current key <= epoch then ignore (Fence.acquire key (epoch + 1) : int);
  match write () with `Fenced -> true | `Accepted | `Dropped -> false

(* Drive every wedged worker's handles once a successor epoch has been
   granted (the "revive after rebalance" moment): each journaling
   attempt — home journal and verdict cache alike — must be fenced. An
   append that reaches the disk is a stale write accepted — the
   split-brain failure this harness exists to catch. *)
let drive_zombies c =
  let t = c.tally in
  List.iter
    (fun z ->
      List.iter
        (fun (_, h) ->
          if
            zombie_write_fenced ~key:(Home.dir h) ~epoch:(Home.epoch h) (fun () ->
                match Home.set_decision h "chaos-zombie" Policy.Allow with
                | () -> `Accepted
                | exception Fence.Stale _ -> `Fenced
                | exception Journal.Crashed _ -> `Dropped)
          then t.zombie_rejected <- t.zombie_rejected + 1
          else t.zombie_accepted <- t.zombie_accepted + 1)
        (Broker.homes (Shard.broker z));
      Option.iter
        (fun h ->
          if
            zombie_write_fenced ~key:(Vcache.fence_key h) ~epoch:(Vcache.handle_epoch h)
              (fun () -> Vcache.probe_write h)
          then t.cache_probe_fenced <- t.cache_probe_fenced + 1
          else t.cache_probe_accepted <- t.cache_probe_accepted + 1)
        (Shard.vcache z))
    c.zombies

(* -- the campaign loop -------------------------------------------------------- *)

(* Wedge the first running shard at or after the scheduled victim — a
   split-brain needs a live worker to turn into a zombie. [false] when
   no shard is running: the caller keeps the window open and retries
   next step, so a scheduled split-brain is never silently skipped. *)
let try_wedge c victim =
  List.exists
    (fun k ->
      let v = (victim + k) mod c.cfg.shards in
      match Supervisor.wedge c.sup v with
      | Some z ->
        c.killed <- add_distinct v c.killed;
        c.zombies <- z :: c.zombies;
        true
      | None -> false)
    (List.init c.cfg.shards Fun.id)

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
      Journal.arm_storage ~seed:salt ~rate_per_thousand:80
        storage_modes.(mode mod Array.length storage_modes);
      c.tally.fault_windows <- c.tally.fault_windows + 1;
      c.fault_steps_left <- 8
    end
  | Replica_destroy { home; replica } ->
    if destroy_replica (home_surface c (home_id c home)) ~replica then
      c.tally.replicas_destroyed <- c.tally.replicas_destroyed + 1
  | Replica_corrupt { home; replica; file; salt } ->
    if corrupt_replica (home_surface c (home_id c home)) ~replica ~file ~salt then
      c.tally.replicas_corrupted <- c.tally.replicas_corrupted + 1
  | Cache_destroy { replica } ->
    if c.cfg.vcache && destroy_replica (cache_surface c) ~replica then
      c.tally.cache_destroyed <- c.tally.cache_destroyed + 1
  | Cache_corrupt { replica; file; salt } ->
    if c.cfg.vcache && corrupt_replica (cache_surface c) ~replica ~file ~salt then
      c.tally.cache_corrupted <- c.tally.cache_corrupted + 1
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

let step c ~step_index =
  let cfg = c.cfg in
  (* close an elapsed storage-fault window *)
  if c.fault_steps_left > 0 then begin
    c.fault_steps_left <- c.fault_steps_left - 1;
    if c.fault_steps_left = 0 then Journal.disarm_storage ()
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
    match Supervisor.owner_of c.sup (fst home) with
    | None ->
      (* the whole fleet is dead: the home has no owner left, so the
         op degrades instead of routing *)
      c.tally.degraded_replies <- c.tally.degraded_replies + 1
    | Some i when c.stalled.(i) > 0 -> c.tally.stalled_timeouts <- c.tally.stalled_timeouts + 1
    | Some _ ->
      let r = Random.State.int c.rng 100 in
      if r < 45 then op_install c home
      else if r < 75 then op_deliver c home
      else if r < 85 then op_decision c home
      else if r < 90 then op_quarantine c home
      else if r < 90 + (audit_per_thousand / 10) then op_audit c home
      else op_deliver c home
  done;
  (* heartbeats from every live, un-stalled shard; then advance time
     and run a supervision pass *)
  List.iter
    (fun i ->
      if c.stalled.(i) > 0 then c.stalled.(i) <- c.stalled.(i) - 1
      else Supervisor.beat c.sup i)
    (List.init cfg.shards Fun.id);
  c.now := !(c.now) +. step_ms;
  Supervisor.tick c.sup;
  note_states c

(* -- final verification ------------------------------------------------------- *)

let subset ~of_:ys xs = List.for_all (fun x -> List.mem x ys) xs
let inv name ok detail = { name; ok; detail }
let id_list = function [] -> "" | ids -> ": " ^ String.concat "," ids

(* With replication the loss carve-out tightens: a damaged replica whose
   records survived on a sibling lost nothing (the merge heals it), so a
   recovery surfaces possible loss only when some file's every replica
   was damaged or missing, or when records would not decode. For a
   single replica this is the old rule. *)
let surfaced_loss (r : Home.recovery_report) =
  (r.Home.quarantined > 0 && r.Home.all_replicas_damaged) || r.Home.skipped_events > 0

(* Cache invariants, once the fleet is shut down, against [live] (the
   dump captured just before the shutdown) and [totals] (the summed
   shard counters):
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
     {!Supervisor.scrub_cache} passes).
   Returns a handle on the second reopen, for the homes' warm audits,
   and the function that closes it and renders the invariants from the
   homes whose warm audit differed. A fleet without the cache returns
   neither. *)
let reopen_cache c ~live ~totals ~cscrub ~cscrub2 =
  match (live, totals, cscrub, cscrub2) with
  | Some live, Some (totals : Vcache.counters), Some r1, Some (r2 : Scrub.home_report) ->
    let cache = cache_surface c in
    (* durable stale-write evidence, scanned before any reopen rewrites
       the replica files *)
    let chaos_records =
      List.length (List.filter (Fault.contains ~sub:"~chaos/") (Surface.records cache))
    in
    let cache_regressions = Surface.epoch_regressions cache in
    let reopen () =
      Vcache.open_store ~fsync:false ~replicas:(List.tl (Surface.dirs cache))
        ~dir:(List.hd (Surface.dirs cache)) ()
    in
    let st1 = reopen () in
    let d1 = Vcache.dump st1 in
    let dmg = Vcache.replay_damage st1 in
    let n1 = Vcache.entries st1 in
    Vcache.close_store st1;
    let st2 = reopen () in
    let d2 = Vcache.dump st2 in
    let chaos_dump = List.filter (fun (k, _) -> Fault.contains ~sub:"~chaos/" k) d1 in
    let kind e = if e = "" then '?' else e.[0] in
    let poisoned =
      List.filter_map
        (fun (k, e) ->
          match List.assoc_opt k live with
          | Some le when kind e <> kind le -> Some k
          | _ -> None)
        d1
    in
    ( Some (Vcache.attach st2 ~owner:"warm-audit"),
      fun warm_bad ->
        Vcache.close_store st2;
        [
          inv "cache-no-stale-epoch-byte"
            (c.tally.cache_probe_accepted = 0 && chaos_records = 0 && chaos_dump = []
            && cache_regressions = 0)
            (Printf.sprintf
               "%d probe(s) fenced, %d accepted, %d chaos record(s) on disk, %d \
                reopened, %d epoch regression(s)"
               c.tally.cache_probe_fenced c.tally.cache_probe_accepted chaos_records
               (List.length chaos_dump) cache_regressions);
          inv "cache-replay-determinism" (d1 = d2)
            (Printf.sprintf "%d entries reopened twice, %d damaged frame(s) dropped"
               (List.length d1) dmg);
          inv "cache-no-poisoned-entry" (poisoned = [])
            (Printf.sprintf "%d reopened entries checked against live state%s"
               (List.length d1) (id_list poisoned));
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
               (List.length c.expects) (id_list warm_bad));
          inv "cache-scrub-convergence" r1.Scrub.converged (Scrub.report_text r1);
          inv "cache-scrub-idempotent"
            (r2.Scrub.healthy && r2.Scrub.converged && r2.Scrub.repair_bytes = 0)
            (Scrub.report_text r2);
        ] )
  | _ -> (None, fun _ -> [])

(* One home's final recoveries, checked against its ledger. The first
   open repairs (truncates torn tails, quarantines corrupt frames,
   merges the replicas) and is read for the acknowledged writes; the
   second, uncached, must render the same state, and with the cache on
   its audit is the cold side of warm-equals-cold, which a third open
   against the reopened cache ([warm]) must match. Returns the home's
   id, whether it surfaced damage, and the checks it fails; lost or
   forgotten acked writes are excused where damage surfaced. *)
let check_home c ~campaign_damaged ~warm (id, ex) =
  let surface = home_surface c id in
  let open_home ?configure () =
    Home.open_ ~fsync:false ~replicas:(List.tl (Surface.dirs surface)) ?configure
      ~dir:(List.hd (Surface.dirs surface)) ()
  in
  let h1, r1 = open_home () in
  let apps = List.map (fun (a : Rule.smartapp) -> a.Rule.name) (Home.installed_apps h1) in
  let kept = subset ~of_:apps ex.installed && ex.acked_seq <= Home.last_seq h1 in
  let decisions = Policy.decisions (Install_flow.policies (Home.flow h1)) in
  let survived =
    subset ~of_:(List.map fst (Home.quarantined h1)) ex.quarantined
    && subset ~of_:decisions ex.decisions
  in
  let text = Home.state_text h1 in
  Home.close h1;
  let h2, r2 = open_home () in
  let replayed = Home.state_text h2 = text in
  let cold = Option.map (fun _ -> Home.audit_text h2) warm in
  Home.close h2;
  (* The quarantine sidecar is the durable form of the same evidence:
     an in-memory recovery report can be lost when the recovering open
     itself crashes on a later home (the journal repair it already
     performed persists, so the retry replays clean), but the sidecar
     written by that repair survives any number of restarts. Every
     replica directory must show corruption for the carve-out to hold. *)
  let honest =
    List.mem id campaign_damaged || surfaced_loss r1 || surfaced_loss r2
    || List.for_all (( < ) 0) (Surface.corrupt_regions surface)
  in
  let warm_equals_cold =
    match warm with
    | None -> true
    | Some hw ->
      let h3, _ = open_home ~configure:(Vcache.configure hw) () in
      let text = Home.audit_text h3 in
      Home.close h3;
      cold = Some text
  in
  let checks =
    [ (`Lost, kept || honest); (`Diverged, replayed); (`Forgot, survived || honest);
      (`Warm_differs, warm_equals_cold) ]
  in
  (id, honest, List.filter_map (fun (check, ok) -> if ok then None else Some check) checks)

(* The one verification pass over a settled campaign: it closes the
   zombies, scrubs twice, shuts the fleet down, recovers every home and
   reopens the cache, and returns the report with every invariant. Each
   durable scan runs before the first step that could rewrite what it
   looks for. *)
let verify c =
  (* split-brain epilogue: give every zombie one last revived write
     attempt, then close its writers before anything rewrites files *)
  drive_zombies c;
  List.iter (fun z -> try Shard.close z with _ -> ()) c.zombies;
  (* durable fingerprint of any accepted stale append: a frame stamped
     below the running epoch maximum. Scanned before scrub and final
     recovery rewrite (and so re-stamp) the files. *)
  let epoch_regressions =
    List.fold_left
      (fun acc (id, _) -> acc + Surface.epoch_regressions (home_surface c id))
      0 c.expects
  in
  let scrub = Supervisor.scrub c.sup in
  let scrub_second = Supervisor.scrub c.sup in
  let cache_scrub = Supervisor.scrub_cache c.sup in
  let cache_scrub_second = Supervisor.scrub_cache c.sup in
  let stats = Supervisor.stats c.sup in
  let live = Option.map Vcache.dump (Supervisor.vcache_store c.sup) in
  Supervisor.close c.sup;
  (* the cache's stale-write scans need its last writer closed, and
     [reopen_cache] runs them before its first reopen *)
  let warm, cache_invariants =
    reopen_cache c ~live ~totals:stats.Supervisor.cache ~cscrub:cache_scrub
      ~cscrub2:cache_scrub_second
  in
  let campaign_damaged =
    (* homes whose mid-campaign recoveries already surfaced possible loss *)
    List.filter_map
      (fun (id, r) -> if surfaced_loss r then Some id else None)
      (Supervisor.recoveries c.sup)
  in
  let homes = List.map (check_home c ~campaign_damaged ~warm) c.expects in
  let failing check =
    List.filter_map (fun (id, _, fails) -> if List.mem check fails then Some id else None) homes
  in
  let sum f = List.fold_left (fun a (_, ex) -> a + f ex) 0 c.expects in
  let n_homes = List.length c.expects in
  let honest = List.length (List.filter (fun (_, honest, _) -> honest) homes) in
  let lost = failing `Lost and diverged = failing `Diverged and forgot = failing `Forgot in
  let invariants =
    [
      inv "no-acked-loss" (lost = [])
        (Printf.sprintf
           "%d installs, %d configs acked across %d homes; %d home(s) with \
            surfaced damage%s"
           (sum (fun ex -> List.length ex.installed))
           (sum (fun ex -> ex.acked_seq))
           n_homes honest (id_list lost));
      inv "replay-determinism" (diverged = [])
        (Printf.sprintf "%d homes recovered twice%s" n_homes (id_list diverged));
      inv "quarantine-decision-survival" (forgot = [])
        (Printf.sprintf "%d decisions, %d quarantines acked%s"
           (sum (fun ex -> List.length ex.decisions))
           (sum (fun ex -> List.length ex.quarantined))
           (id_list forgot));
      inv "no-false-clean-bill" (c.false_clean = 0)
        (Printf.sprintf "%d outcome(s) checked, %d false clean" c.outcomes_checked
           c.false_clean);
      inv "no-stale-epoch-accepted"
        (c.tally.zombie_accepted = 0 && epoch_regressions = 0)
        (Printf.sprintf
           "%d zombie append(s) fenced, %d accepted, %d epoch regression(s) on \
            disk, %d stale replies"
           c.tally.zombie_rejected c.tally.zombie_accepted epoch_regressions
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
    @ cache_invariants (failing `Warm_differs)
  in
  {
    config = c.cfg;
    schedule = c.schedule;
    tally = c.tally;
    scrub;
    scrub_second;
    cache_scrub;
    cache_scrub_second;
    stats;
    shards_killed = List.length c.killed;
    shards_recovered = List.length c.recovered;
    invariants;
  }

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
      heartbeat_interval_ms = step_ms *. 2.0;
      failure_threshold = 2;
      reset_timeout_ms = step_ms *. 4.0;
      restart_budget = 6;
      backoff_base_ms = step_ms;
      backoff_cap_ms = step_ms *. 10.0;
      seed = config.seed;
      fsync = false;
      clock;
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
      tally =
        {
          ops = 0;
          installs_acked = 0;
          configs_acked = 0;
          decisions_acked = 0;
          quarantines_acked = 0;
          degraded_replies = 0;
          busy_replies = 0;
          stalled_timeouts = 0;
          served_while_impaired = 0;
          fault_windows = 0;
          replicas_destroyed = 0;
          replicas_corrupted = 0;
          cache_destroyed = 0;
          cache_corrupted = 0;
          zombie_rejected = 0;
          zombie_accepted = 0;
          cache_probe_fenced = 0;
          cache_probe_accepted = 0;
        };
      fault_steps_left = 0;
      false_clean = 0;
      outcomes_checked = 0;
      killed = [];
      recovered = [];
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Journal.disarm_storage ();
      Fault.reset_sleeper ();
      Budget.reset_clock ())
  @@ fun () ->
  (* injected stalls advance the campaign's virtual clock instead of
     blocking real time, and solver deadlines poll the same clock — a
     whole campaign with stall windows costs no wall-clock sleeps *)
  Fault.set_sleeper (fun ms -> now := !now +. ms);
  Budget.set_clock (fun () -> !now /. 1000.0);
  for step_index = 1 to config.steps do
    step c ~step_index
  done;
  Journal.disarm_storage ();
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
    c.now := !(c.now) +. step_ms;
    Supervisor.beat_all c.sup;
    Supervisor.tick c.sup;
    note_states c
  done;
  verify c

(* -- rendering ---------------------------------------------------------------- *)

let render (r : report) =
  let t = r.tally in
  let b = Buffer.create 512 in
  Printf.bprintf b "chaos campaign: seed=%d shards=%d homes=%d steps=%d\n" r.config.seed
    r.config.shards r.config.homes r.config.steps;
  let count p = List.length (List.filter (fun s -> p s.ev) r.schedule) in
  Printf.bprintf b
    "schedule: events=%d kills=%d stalls=%d storage-windows=%d replica-loss=%d \
     replica-corrupt=%d cache-loss=%d cache-corrupt=%d splits=%d\n"
    (List.length r.schedule)
    (count (function Kill _ -> true | _ -> false))
    (count (function Stall _ -> true | _ -> false))
    (count (function Storage_window _ -> true | _ -> false))
    (count (function Replica_destroy _ -> true | _ -> false))
    (count (function Replica_corrupt _ -> true | _ -> false))
    (count (function Cache_destroy _ -> true | _ -> false))
    (count (function Cache_corrupt _ -> true | _ -> false))
    (count (function Split_brain _ -> true | _ -> false));
  Printf.bprintf b
    "workload: ops=%d acked installs=%d configs=%d decisions=%d quarantines=%d \
     busy=%d degraded=%d stalled-timeouts=%d\n"
    t.ops t.installs_acked t.configs_acked t.decisions_acked t.quarantines_acked
    t.busy_replies t.degraded_replies t.stalled_timeouts;
  Printf.bprintf b
    "faults: windows=%d kills=%d restarts=%d breaker-trips=%d rebalanced-homes=%d \
     dead-shards=%d\n"
    t.fault_windows r.stats.Supervisor.kills r.stats.Supervisor.restarts
    r.stats.Supervisor.breaker_trips r.stats.Supervisor.rebalanced_homes
    r.stats.Supervisor.dead_shards;
  Printf.bprintf b
    "isolation: shards-killed=%d shards-recovered=%d served-while-impaired=%d\n"
    r.shards_killed r.shards_recovered t.served_while_impaired;
  Printf.bprintf b
    "replication: replicas=%d destroyed=%d corrupted=%d split-brains=%d \
     zombie-rejected=%d zombie-accepted=%d stale-replies=%d\n"
    r.config.replicas t.replicas_destroyed t.replicas_corrupted split_brains
    t.zombie_rejected t.zombie_accepted r.stats.Supervisor.stale_replies;
  Printf.bprintf b "scrub:   %s\nrescrub: %s\n" (Scrub.counters_text r.scrub)
    (Scrub.counters_text r.scrub_second);
  (match r.stats.Supervisor.cache with
  | None -> ()
  | Some cc ->
    Printf.bprintf b "vcache: entries=%d %s\n" r.stats.Supervisor.cache_entries
      (Homeguard_vcache.Vcache.counters_text cc);
    Printf.bprintf b
      "cache-replication: destroyed=%d corrupted=%d probes-fenced=%d \
       probes-accepted=%d\n"
      t.cache_destroyed t.cache_corrupted t.cache_probe_fenced t.cache_probe_accepted;
    List.iter
      (fun (label, report) ->
        Option.iter (fun cs -> Printf.bprintf b "%s%s\n" label (Scrub.report_text cs)) report)
      [ ("cache-scrub:   ", r.cache_scrub); ("cache-rescrub: ", r.cache_scrub_second) ]);
  (* one line per invariant: a detail may quote verdict-cache class keys,
     which hold newlines *)
  List.iter
    (fun i ->
      Printf.bprintf b "invariant %-28s %s (%s)\n" i.name
        (if i.ok then "OK" else "VIOLATED")
        (String.escaped i.detail))
    r.invariants;
  Buffer.add_string b
    (if passed r then "campaign passed\n" else "campaign FAILED\n");
  Buffer.contents b
