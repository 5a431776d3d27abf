(** The fleet supervisor: partitions homes across N shard workers by
    consistent hashing, watches their heartbeats, restarts crashed or
    stalled shards from their journals under a bounded budget with
    jittered exponential backoff (the PR 4 retry policy), shields
    callers from a failing shard with a per-shard circuit breaker, and
    reassigns a permanently dead shard's homes to the survivors.

    Everything is driven by an injectable clock and a seeded RNG, so a
    whole failure campaign — kills, stalls, backoff waits, probes — is
    deterministic and replayable. *)

module Home = Homeguard_store.Home
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub
module Surface = Homeguard_store.Surface
module Broker = Homeguard_serve.Broker
module Deadline = Homeguard_serve.Deadline
module Shed = Homeguard_serve.Shed
module Journal = Homeguard_store.Journal
module Vcache = Homeguard_vcache.Vcache

type config = {
  shards : int;
  replicas : int;  (** journal replicas per home (>= 1) *)
  heartbeat_interval_ms : float;
  failure_threshold : int;  (** consecutive failures tripping the breaker *)
  reset_timeout_ms : float;  (** breaker Open → Half_open delay *)
  restart_budget : int;  (** restart attempts per shard before Dead *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;  (** jitter determinism *)
  fsync : bool;
  mode : Home.mode;
  clock : Deadline.clock;
  broker : Broker.config;  (** per-shard; its clock is overridden by [clock] *)
  vcache : bool;
      (** share one persistent verdict cache ([dir/vcache]) across all
          shards' detectors *)
}

let default_config =
  {
    shards = 4;
    replicas = 2;
    heartbeat_interval_ms = 1_000.0;
    failure_threshold = 3;
    reset_timeout_ms = 1_000.0;
    restart_budget = 5;
    backoff_base_ms = 250.0;
    backoff_cap_ms = 8_000.0;
    seed = 1;
    fsync = true;
    mode = Home.Mixed;
    clock = Deadline.wall_clock;
    broker = Broker.default_config;
    vcache = true;
  }

type slot_state =
  | Running of Shard.t
  | Restarting of { until : float; attempts : int; prev_backoff : float }
  | Dead

type slot = {
  index : int;
  mutable state : slot_state;
  breaker : Breaker.t;
  health : Health.t;
  mutable cache : Vcache.handle option;
      (** this shard's handle on the shared cache, re-minted with a
          fresh ownership epoch on every (re)open so a wedged previous
          incarnation's handle is fenced off the cache surface; totals
          stay cumulative because the store sums every handle ever
          attached *)
  mutable homes_rev : string list;  (** current assignment, latest first *)
  mutable restarts : int;  (** successful supervised restarts *)
  mutable attempts_used : int;  (** restart attempts charged to the budget *)
  mutable last_error : string;
}

type t = {
  dir : string;
  config : config;
  slots : slot array;
  ring : (int * int) array;  (** (point, shard) sorted by point *)
  assignment : (string, int) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;
      (** last ownership epoch granted per home; every (re)open of a
          home gets the next one, so a revived stale owner is fenced *)
  cache_store : Vcache.store option;
  rng : Random.State.t;
  mutable kills : int;  (** crashes observed (injected or organic) *)
  mutable rebalances : int;  (** homes moved off dead shards *)
  mutable stale_replies : int;
      (** requests refused because the routed shard held a stale epoch *)
  mutable recoveries : (string * Home.recovery_report) list;
      (** every journal recovery any shard performed, most recent first *)
}

let shard_label i = Printf.sprintf "shard-%d" i

(* -- consistent hash ring ----------------------------------------------------- *)

(* 32 virtual points per shard smooth the partition; the masks keep
   Hashtbl.hash's 30-bit output strictly non-negative. *)
let vpoints = 32
let point shard k = Hashtbl.hash ("hg-fleet-shard", shard, k) land 0x3FFFFFFF
let home_point id = Hashtbl.hash ("hg-fleet-home", id) land 0x3FFFFFFF

let make_ring shards =
  let pts =
    List.concat
      (List.init shards (fun s -> List.init vpoints (fun k -> (point s k, s))))
  in
  let arr = Array.of_list pts in
  Array.sort compare arr;
  arr

(** First clockwise ring point owned by a shard [alive] accepts —
    consistent hashing's placement rule, so removing a dead shard
    moves only that shard's homes. [None] when no shard qualifies. *)
let owner t ~alive id =
  let n = Array.length t.ring in
  let hp = home_point id in
  (* binary search for the first point >= hp *)
  let rec bsearch lo hi = if lo >= hi then lo else
    let mid = (lo + hi) / 2 in
    if fst t.ring.(mid) < hp then bsearch (mid + 1) hi else bsearch lo mid
  in
  let start = bsearch 0 n in
  let rec walk i remaining =
    if remaining = 0 then None
    else
      let _, s = t.ring.(i mod n) in
      if alive s then Some s else walk (i + 1) (remaining - 1)
  in
  walk start n

let slot_alive slot = match slot.state with Dead -> false | _ -> true

(* -- construction ------------------------------------------------------------- *)

let jittered t prev =
  let base = Float.max 1.0 t.config.backoff_base_ms in
  let cap = Float.max base t.config.backoff_cap_ms in
  let hi = Float.min cap (prev *. 3.0) in
  let u = float_of_int (Random.State.int t.rng 1024) /. 1023.0 in
  base +. (u *. (hi -. base))

(* A fresh, strictly larger ownership epoch for [id]: granted on every
   (re)open, so whichever shard last opened the home outranks any
   revived previous owner at the fence. *)
let next_epoch t id =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.epochs id) in
  Hashtbl.replace t.epochs id n;
  n

let open_shard t slot =
  let broker_config = { t.config.broker with Broker.clock = t.config.clock } in
  (* a fresh cache handle (and cache-surface ownership epoch) per
     incarnation: attaching fences the previous incarnation's handle,
     so a wedged zombie that still holds it cannot write a stale solve
     class while this replacement serves the same homes *)
  (match t.cache_store with
  | Some st -> slot.cache <- Some (Vcache.attach st ~owner:(shard_label slot.index))
  | None -> ());
  (* record each home's recovery as it happens — a later home crashing
     this open must not discard the evidence (the journal repair it
     performed is already durable) *)
  Shard.open_ ~broker_config ~fsync:t.config.fsync ~mode:t.config.mode
    ~replicas:t.config.replicas
    ~epoch_of:(next_epoch t)
    ~on_recovery:(fun id report -> t.recoveries <- (id, report) :: t.recoveries)
    ?vcache:slot.cache ~fleet_dir:t.dir ~home_ids:(List.rev slot.homes_rev) ()

let create ?(config = default_config) ~dir ~homes () =
  if config.shards < 1 then invalid_arg "Supervisor.create: shards < 1";
  if config.restart_budget < 0 then invalid_arg "Supervisor.create: restart_budget < 0";
  if config.replicas < 1 then invalid_arg "Supervisor.create: replicas < 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let cache_store =
    if config.vcache then
      (* the cache surface replicates exactly like home journals: one
         copy per replica root, converged by scrub, recovered merged *)
      let dirs = Shard.cache_dirs ~fleet_dir:dir ~replicas:config.replicas in
      Some
        (Vcache.open_store ~fsync:config.fsync ~replicas:(List.tl dirs)
           ~dir:(List.hd dirs) ())
    else None
  in
  let slots =
    Array.init config.shards (fun index ->
        {
          index;
          state = Dead;  (* populated below *)
          breaker =
            Breaker.create ~failure_threshold:config.failure_threshold
              ~reset_timeout_ms:config.reset_timeout_ms config.clock;
          health = Health.create ~interval_ms:config.heartbeat_interval_ms config.clock;
          cache = None;  (* attached (with an epoch grant) by open_shard *)
          homes_rev = [];
          restarts = 0;
          attempts_used = 0;
          last_error = "";
        })
  in
  let t =
    {
      dir;
      config;
      slots;
      ring = make_ring config.shards;
      assignment = Hashtbl.create (List.length homes);
      epochs = Hashtbl.create (List.length homes);
      cache_store;
      rng = Random.State.make [| 0xf1ee7; config.seed |];
      kills = 0;
      rebalances = 0;
      stale_replies = 0;
      recoveries = [];
    }
  in
  List.iter
    (fun id ->
      if Hashtbl.mem t.assignment id then
        invalid_arg (Printf.sprintf "Supervisor.create: duplicate home %S" id);
      match owner t ~alive:(fun _ -> true) id with
      | None -> assert false  (* ring is non-empty *)
      | Some s ->
        Hashtbl.replace t.assignment id s;
        slots.(s).homes_rev <- id :: slots.(s).homes_rev)
    homes;
  Array.iter (fun slot -> slot.state <- Running (open_shard t slot)) slots;
  t

(* -- failure handling --------------------------------------------------------- *)

let rec mark_dead t slot =
  (match slot.state with
  | Running sh -> ( try Shard.close sh with _ -> ())
  | _ -> ());
  slot.state <- Dead;
  let orphans = List.rev slot.homes_rev in
  slot.homes_rev <- [];
  (* Reassign by the same ring walk, restricted to surviving shards:
     only the dead shard's homes move. A surviving-but-down shard
     (Restarting) still accepts assignments — it picks the home up
     when its restart replays the journals. *)
  List.iter
    (fun id ->
      match owner t ~alive:(fun s -> slot_alive t.slots.(s)) id with
      | None ->
        (* whole fleet is dead: keep the home on its (dead) owner so
           routing still answers Unavailable and {!scrub} still covers
           it offline, instead of forgetting the home exists *)
        slot.homes_rev <- id :: slot.homes_rev
      | Some s ->
        let dst = t.slots.(s) in
        dst.homes_rev <- id :: dst.homes_rev;
        Hashtbl.replace t.assignment id s;
        t.rebalances <- t.rebalances + 1;
        (match dst.state with
        | Running sh -> (
          match Shard.add_home sh id with
          | report -> t.recoveries <- (id, report) :: t.recoveries
          | exception Journal.Crashed msg ->
            (* recovering the orphan crashed the destination too *)
            crash t dst ~error:("rebalance recovery crashed: " ^ msg))
        | Restarting _ | Dead -> ()))
    orphans

and schedule_restart t slot ~prev =
  if slot.attempts_used >= t.config.restart_budget then mark_dead t slot
  else begin
    slot.attempts_used <- slot.attempts_used + 1;
    let sleep = jittered t prev in
    slot.state <-
      Restarting
        { until = t.config.clock () +. sleep;
          attempts = slot.attempts_used;
          prev_backoff = sleep;
        }
  end

and crash t slot ~error =
  (match slot.state with
  | Running sh -> ( try Shard.close sh with _ -> ())
  | _ -> ());
  t.kills <- t.kills + 1;
  slot.last_error <- error;
  schedule_restart t slot ~prev:t.config.backoff_base_ms

(** Supervision pass: detect stalled shards (missed heartbeats) and
    bring Restarting shards whose backoff elapsed back up via journal
    replay. A restart that crashes mid-recovery is charged to the
    budget and rescheduled with escalated backoff. *)
let tick t =
  Array.iter
    (fun slot ->
      match slot.state with
      | Running _ -> (
        match Health.status slot.health with
        | Health.Failed m ->
          crash t slot
            ~error:(Printf.sprintf "stalled: missed %d heartbeat(s)" m)
        | Health.Alive | Health.Late _ -> ())
      | Restarting { until; prev_backoff; _ } when t.config.clock () >= until -> (
        match open_shard t slot with
        | sh ->
          slot.state <- Running sh;
          slot.restarts <- slot.restarts + 1;
          Health.beat slot.health;
          (* recovery already served as the shed window *)
          Breaker.begin_probing slot.breaker
        | exception e ->
          slot.last_error <- "restart failed: " ^ Printexc.to_string e;
          schedule_restart t slot ~prev:prev_backoff)
      | Restarting _ | Dead -> ())
    t.slots

(* -- request routing ---------------------------------------------------------- *)

type 'a reply =
  | Done of { shard : int; value : 'a }
  | Unavailable of { shard : int; retry_after_ms : int; reason : string }
      (** breaker open, restart pending, or shard dead *)
  | Crashed of { shard : int; retry_after_ms : int; error : string }
      (** the request crashed its shard; a restart is scheduled and the
          hint points at it, same contract as [Unavailable] *)

let to_outcome = function
  | Done { value; _ } -> Shed.Completed value
  | Unavailable { shard; retry_after_ms; _ } | Crashed { shard; retry_after_ms; _ } ->
    Shed.Degraded
      {
        reason = Shed.Shard_unavailable { shard = shard_label shard; retry_after_ms };
        partial = None;
        shard = Some (shard_label shard);
      }

let owner_of t home = Hashtbl.find_opt t.assignment home

(* The retry hint of a reply from [slot]: the time until its next
   restart attempt ([ms] when none is pending), and never shorter than
   the breaker's shed window — breaker state scales the backpressure,
   per the admission contract. *)
let retry_hint t slot ms =
  let ms =
    match slot.state with
    | Restarting { until; _ } -> until -. t.config.clock ()
    | Running _ | Dead -> ms
  in
  int_of_float (Float.max 1.0 (Float.max ms (Breaker.retry_after_ms slot.breaker)))

(* The reply of shard [idx] while it is down: dead or awaiting restart. *)
let down t idx slot =
  let reason = match slot.state with Dead -> "shard dead" | _ -> "restart pending" in
  Unavailable { shard = idx; retry_after_ms = retry_hint t slot 1.0; reason }

(* Run admitted work on shard [idx]'s running worker [sh].
   {!Journal.Crashed} escaping the work counts as a shard crash (close,
   schedule restart, honest reply). *)
let work t idx slot sh f =
  match f sh with
  | v ->
    Breaker.note_success slot.breaker;
    Health.beat slot.health;
    Done { shard = idx; value = v }
  | exception Journal.Crashed msg ->
    Breaker.note_failure slot.breaker;
    crash t slot ~error:msg;
    Crashed { shard = idx; retry_after_ms = retry_hint t slot 1.0; error = msg }
  | exception Fence.Stale { held; current; _ } ->
    (* the routed shard holds an out-of-date ownership epoch —
       nothing reached the disk; refuse honestly, don't crash *)
    t.stale_replies <- t.stale_replies + 1;
    Unavailable
      {
        shard = idx;
        retry_after_ms = retry_hint t slot 1.0;
        reason = Printf.sprintf "stale epoch (held %d < current %d)" held current;
      }

(** Route one unit of work to [home]'s shard. The breaker and the
    restart schedule gate admission. *)
let run t ~home f =
  match owner_of t home with
  | None -> invalid_arg (Printf.sprintf "Supervisor.run: unknown home %S" home)
  | Some idx -> (
    let slot = t.slots.(idx) in
    match slot.state with
    | Running sh -> (
      match Breaker.allow slot.breaker with
      | `Reject ms ->
        Unavailable
          { shard = idx; retry_after_ms = retry_hint t slot ms; reason = "breaker open" }
      | `Admit | `Probe -> work t idx slot sh f)
    | Restarting _ | Dead -> down t idx slot)

let deliver t ~home ~seq uri =
  run t ~home (fun sh -> Home.deliver (Broker.home (Shard.broker sh) home) ~seq uri)

let submit_audit t ~home () =
  run t ~home (fun sh -> Broker.submit_audit (Shard.broker sh) ~home ())

(* No breaker check: the drained jobs were admitted at {!submit_audit}. *)
let drain t ~shard:idx =
  let slot = t.slots.(idx) in
  match slot.state with
  | Running sh -> work t idx slot sh (fun sh -> Broker.drain (Shard.broker sh))
  | Restarting _ | Dead -> down t idx slot

(* -- chaos / introspection hooks ---------------------------------------------- *)

(** Inject a crash (chaos' shard kill). [false] when the shard is not
    running. *)
let kill t idx =
  let slot = t.slots.(idx) in
  match slot.state with
  | Running _ ->
    Breaker.note_failure slot.breaker;
    crash t slot ~error:"injected kill";
    true
  | Restarting _ | Dead -> false

(** Wedge a running shard: the supervisor gives up on it (schedules a
    replacement restart exactly as {!kill} does) but the worker itself
    is {e not} closed — the returned handle still holds every journal
    writer it had, modelling a stalled process that wakes up after its
    homes were reassigned. Everything the zombie tries to append is
    fenced: the replacement opens granted fresh epochs, so the zombie's
    writes raise {!Fence.Stale} instead of reaching the disk. Chaos'
    split-brain window drives this handle directly. *)
let wedge t idx =
  let slot = t.slots.(idx) in
  match slot.state with
  | Running sh ->
    Breaker.note_failure slot.breaker;
    t.kills <- t.kills + 1;
    slot.last_error <- "wedged (stall-then-revive)";
    schedule_restart t slot ~prev:t.config.backoff_base_ms;
    Some sh
  | Restarting _ | Dead -> None

(** Anti-entropy pass over every home in the fleet: homes on a running
    shard scrub live (writers parked and reopened around the repair);
    homes whose owner is down or dead scrub offline. Returns the summed
    per-kind counters; a second pass over an undamaged fleet reports
    all-healthy. *)
let scrub t =
  List.fold_left
    (fun acc id ->
      let live =
        Option.bind (Hashtbl.find_opt t.assignment id) (fun idx ->
            match t.slots.(idx).state with
            | Running sh -> Broker.home_opt (Shard.broker sh) id
            | Restarting _ | Dead -> None)
      in
      let surface =
        match live with
        | Some home -> Home.surface home
        | None ->
          Surface.at ~fsync:t.config.fsync Surface.Home
            (Shard.home_dirs ~fleet_dir:t.dir ~replicas:t.config.replicas id)
      in
      Scrub.add acc (Surface.scrub surface))
    Scrub.zero
    (List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.assignment []))

(** Anti-entropy pass over the verdict-cache surface: park the shared
    writer, converge the cache replicas at frame granularity, reopen.
    [None] when the fleet runs without a cache. Kept separate from
    {!scrub} (whose counters are per-home) so callers can assert on
    each surface independently; [fleet scrub] and the chaos campaign
    run both. *)
let scrub_cache t = Option.map Vcache.scrub t.cache_store

(** Heartbeat from shard [idx]; chaos stalls a shard by advancing the
    clock while withholding its beat. *)
let beat t idx =
  let slot = t.slots.(idx) in
  match slot.state with Running _ -> Health.beat slot.health | _ -> ()

let beat_all t = Array.iter (fun s -> beat t s.index) t.slots

let shard_state t idx =
  match t.slots.(idx).state with
  | Running _ -> `Running
  | Restarting _ -> `Restarting
  | Dead -> `Dead

let shard t idx =
  match t.slots.(idx).state with Running sh -> Some sh | _ -> None

let homes_of t idx = List.rev t.slots.(idx).homes_rev

type stats = {
  shards : int;
  dead_shards : int;
  kills : int;
  restarts : int;
  rebalanced_homes : int;
  breaker_trips : int;
  recoveries : int;
  stale_rejections : int;
      (** fenced appends rejected process-wide ({!Fence.rejections}) *)
  stale_replies : int;
      (** requests refused by {!run} because the shard's epoch was stale *)
  cache_entries : int;  (** live entries in the shared verdict cache *)
  cache : Vcache.counters option;  (** summed across all shard handles *)
}

let vcache_store t = t.cache_store

let stats t =
  let restarts = Array.fold_left (fun a (s : slot) -> a + s.restarts) 0 t.slots in
  let trips = Array.fold_left (fun a (s : slot) -> a + Breaker.trips s.breaker) 0 t.slots in
  let dead =
    Array.fold_left
      (fun a (s : slot) -> a + match s.state with Dead -> 1 | _ -> 0)
      0 t.slots
  in
  {
    shards = t.config.shards;
    dead_shards = dead;
    kills = t.kills;
    restarts;
    rebalanced_homes = t.rebalances;
    breaker_trips = trips;
    recoveries = List.length t.recoveries;
    stale_rejections = Fence.rejections ();
    stale_replies = t.stale_replies;
    cache_entries =
      (match t.cache_store with None -> 0 | Some st -> Vcache.entries st);
    cache = Option.map Vcache.total_counters t.cache_store;
  }

let recoveries (t : t) = t.recoveries

let status t =
  let b = Buffer.create 256 in
  Array.iter
    (fun slot ->
      let state =
        match slot.state with
        | Running sh -> "running " ^ Broker.status (Shard.broker sh)
        | Restarting { until; attempts; _ } ->
          Printf.sprintf "restarting attempt=%d in-ms=%.0f" attempts
            (Float.max 0.0 (until -. t.config.clock ()))
        | Dead -> "dead"
      in
      Buffer.add_string b
        (Printf.sprintf "%s: homes=%d breaker=%s health=%s restarts=%d %s\n"
           (shard_label slot.index) (List.length slot.homes_rev)
           (Breaker.describe slot.breaker)
           (Health.describe slot.health) slot.restarts state);
      match slot.cache with
      | None -> ()
      | Some h ->
        Buffer.add_string b
          (Printf.sprintf "%s: cache %s\n" (shard_label slot.index)
             (Vcache.counters_text (Vcache.counters h))))
    t.slots;
  (match t.cache_store with
  | None -> ()
  | Some st ->
    Buffer.add_string b
      (Printf.sprintf "vcache: entries=%d damage=%d total %s\n"
         (Vcache.entries st) (Vcache.replay_damage st)
         (Vcache.counters_text (Vcache.total_counters st))));
  Buffer.contents b

let close t =
  Array.iter
    (fun slot ->
      match slot.state with
      | Running sh ->
        (try Shard.close sh with _ -> ());
        slot.state <- Dead
      | _ -> slot.state <- Dead)
    t.slots;
  match t.cache_store with
  | None -> ()
  | Some st -> ( try Vcache.close_store st with _ -> ())
