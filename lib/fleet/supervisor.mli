(** The fleet supervisor: consistent-hash home placement over N shard
    workers, heartbeat health checks, per-shard circuit breakers,
    supervised journal-replay restarts under a bounded budget with
    jittered exponential backoff, and rebalance-on-permanent-failure.
    Deterministic under an injectable clock and seed. *)

module Home = Homeguard_store.Home
module Broker = Homeguard_serve.Broker
module Deadline = Homeguard_serve.Deadline
module Shed = Homeguard_serve.Shed
module Vcache = Homeguard_vcache.Vcache

type config = {
  shards : int;
  replicas : int;
      (** journal replicas per home (>= 1); replica [k] lives under the
          distinct replica root [dir/r<k>] *)
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
          shards' detectors; warm across restarts *)
}

val default_config : config
(** 4 shards, 2 replicas per home journal, 1000 ms heartbeats, breaker
    trips after 3 failures / probes after 1000 ms, 5 restart attempts
    per shard, 250–8000 ms decorrelated-jitter backoff, fsync on, wall
    clock. Two settings are constants every fleet shares rather than
    fields: a shard is restarted after 3 missed heartbeats
    ({!Health.create}), and a half-open breaker closes after 2 probe
    successes ({!Breaker.create}). *)

type t

val create : ?config:config -> dir:string -> homes:string list -> unit -> t
(** Open the fleet rooted at [dir]: place every home on the ring,
    open each shard's homes (journal recovery), start all breakers
    closed and all heartbeats fresh.
    @raise Invalid_argument on duplicate home ids or bad config. *)

val tick : t -> unit
(** One supervision pass: restart shards whose heartbeat failed
    ({!Health.Failed}) and bring shards whose backoff elapsed back up
    via journal replay. A restart that crashes mid-recovery is charged
    to the budget and rescheduled; a shard out of budget goes [Dead]
    and its homes rebalance to the survivors. *)

(** {2 Request routing} *)

type 'a reply =
  | Done of { shard : int; value : 'a }
  | Unavailable of { shard : int; retry_after_ms : int; reason : string }
      (** breaker open, restart pending, shard dead, or the shard's
          ownership epoch went stale; the hint is the max of the
          breaker's shed window and the restart schedule *)
  | Crashed of { shard : int; retry_after_ms : int; error : string }
      (** the request crashed its shard; a restart is scheduled and the
          hint points at it, same contract as [Unavailable] *)

val to_outcome : 'a reply -> 'a Shed.outcome
(** [Unavailable]/[Crashed] become [Degraded] with
    [Shed.Shard_unavailable] naming the shard — never a clean bill. *)

val run : t -> home:string -> (Shard.t -> 'a) -> 'a reply
(** Route one unit of work to [home]'s owner. {!Homeguard_store.Journal.Crashed} escaping
    [f] counts as a shard crash: close, schedule restart, honest
    [Crashed] reply.
    @raise Invalid_argument on an unknown home. *)

val deliver : t -> home:string -> seq:int -> string -> Home.delivery reply
val submit_audit : t -> home:string -> unit -> (int, int) result reply
val drain : t -> shard:int -> Broker.audit_outcome list reply
(** Run the shard's queued audits, replying and hinting as {!run}
    does, but without asking the breaker: the jobs were admitted at
    {!submit_audit}. *)

(** {2 Health and chaos hooks} *)

val kill : t -> int -> bool
(** Inject a crash; [false] when the shard is not running. *)

val wedge : t -> int -> Shard.t option
(** Wedge a running shard: schedule its replacement exactly as {!kill}
    does, but do {e not} close the worker — the returned handle keeps
    its journal writers open, modelling a stalled process that revives
    after its homes were reassigned. Every append the zombie attempts
    raises {!Homeguard_store.Fence.Stale}; its verdict-cache handle is
    likewise superseded the moment the replacement attaches, so its
    cache writes are refused at the fence. Chaos' split-brain window
    drives this handle directly. [None] when the shard is not
    running. *)

val scrub : t -> Homeguard_store.Scrub.counters
(** Anti-entropy pass over every home: live homes scrub in place
    (writers parked around the repair), homes on down/dead shards scrub
    offline. A second pass over an undamaged fleet reports
    all-healthy. *)

val scrub_cache : t -> Homeguard_store.Scrub.home_report option
(** Anti-entropy pass over the verdict-cache surface (the cache's
    replica roots converge at frame granularity, writer parked around
    the repair); [None] when the fleet runs without a cache. [fleet
    scrub] and the chaos campaign run this alongside {!scrub}. *)

val beat : t -> int -> unit
(** Heartbeat from one shard (requests beat implicitly on success).
    Chaos stalls a shard by advancing the clock while withholding its
    beat. *)

val beat_all : t -> unit

(** {2 Introspection} *)

val shard_label : int -> string
val owner_of : t -> string -> int option
val shard_state : t -> int -> [ `Running | `Restarting | `Dead ]
val shard : t -> int -> Shard.t option
val homes_of : t -> int -> string list

type stats = {
  shards : int;
  dead_shards : int;
  kills : int;
  restarts : int;
  rebalanced_homes : int;
  breaker_trips : int;
  recoveries : int;
  stale_rejections : int;
      (** fenced appends rejected process-wide — the durable trace of a
          survived split-brain window, not an error *)
  stale_replies : int;
      (** requests {!run} refused because the routed shard's epoch was
          stale *)
  cache_entries : int;  (** live entries in the shared verdict cache *)
  cache : Vcache.counters option;  (** summed across all shard handles *)
}

val stats : t -> stats

val vcache_store : t -> Vcache.store option
(** The shared verdict cache, when enabled — chaos invariants and the
    CLI inspect it directly. *)

val recoveries : t -> (string * Home.recovery_report) list
(** Every journal recovery any shard performed (restarts, rebalances,
    initial opens), most recent first — the honest-loss accounting the
    chaos invariants consult. *)

val status : t -> string
val close : t -> unit
