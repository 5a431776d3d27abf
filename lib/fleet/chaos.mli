(** Seeded chaos campaigns over a synthetic-home fleet: an {e explicit,
    up-front fault schedule} of shard kills, stalls, storage-fault
    windows, replica and cache-replica destruction/corruption and
    stall-then-revive (split-brain) windows layered over
    install/config/decision/audit traffic, verified against the fleet
    invariants — no silent acked loss while one replica survives, zero
    stale-epoch appends accepted, scrub convergence and idempotence,
    replay-deterministic recovery, quarantine/decision survival, no
    false clean bill — plus, when the shared verdict cache is on, the
    cache-surface invariants: no stale-epoch cache byte (every zombie
    cache write fenced, nothing reaches disk), replay-deterministic
    reopen, no poisoned or torn entry served, no verdict conflicts,
    warm across the final restart, a warm reopened cache auditing
    byte-identically to a cold one, and cache-scrub
    convergence/idempotence.

    The schedule is a pure function of the config seed, derived from a
    fault RNG independent of the workload stream — so any {e subset} of
    it can be replayed ({!run} with [?schedule]) and a failing schedule
    can be delta-debugged down to a minimal reproduction
    ({!Repro.shrink}). *)

type config = {
  seed : int;
  shards : int;
  homes : int;
  steps : int;
  fault_window_per_thousand : int;
      (** per-step chance of opening a storage-fault window *)
  vcache : bool;
      (** run the campaign with the shared verdict cache enabled and
          verify the cache-surface invariants *)
  replicas : int;  (** replica count per home (1 = unreplicated) *)
}
(** What a campaign varies. Every other setting — the simulated step
    length, the forced kills and split-brain windows, and the per-step
    chances of an extra kill, a stall, a background audit and each kind
    of replica damage — is one value that all campaigns share. *)

val fixed_settings : (string * string) list
(** Those one-value settings, keyed by their [hg-chaos-repro v1]
    config names ([step-ms], [kill], [split-brains], …) and rendered as
    a repro writes them. *)

val default_config : config
(** seed 42, 4 shards, 24 homes, 400 steps. *)

val smoke_config : config
(** A short CI-sized campaign (10 homes, 150 steps). *)

(** {2 The fault schedule} *)

(** One scheduled fault. Every parameter the fault needs — victim,
    home/replica/file indices, corruption salts — is minted at
    derivation time, so an event fires identically whether it runs
    inside the full schedule or a shrunk subset. *)
type fault_event =
  | Kill of { victim : int }
  | Stall of { victim : int }
  | Storage_window of { mode : int; salt : int }
      (** open a crash/torn/flip storage-fault window; [mode] indexes
          the cycling order, [salt] seeds the fault stream *)
  | Replica_destroy of { home : int; replica : int }
  | Replica_corrupt of { home : int; replica : int; file : int; salt : int }
  | Cache_destroy of { replica : int }  (** non-primary cache replicas *)
  | Cache_corrupt of { replica : int; file : int; salt : int }
  | Split_brain of { victim : int }

type scheduled = { at : int; ev : fault_event }
(** [ev] fires at workload step [at] (1-based). *)

val schedule_of_config : config -> scheduled list
(** The complete fault plan for a config — a pure function of
    [config.seed], sorted by step, independent of the workload RNG.
    [run ~config ()] executes exactly this schedule. *)

type invariant = { name : string; ok : bool; detail : string }

type tally = {
  mutable ops : int;
  mutable installs_acked : int;
  mutable configs_acked : int;
  mutable decisions_acked : int;
  mutable quarantines_acked : int;
  mutable degraded_replies : int;
  mutable busy_replies : int;
  mutable stalled_timeouts : int;
  mutable served_while_impaired : int;
      (** ops completed by healthy shards while some shard was down —
          the fault-isolation liveness signal *)
  mutable fault_windows : int;
  mutable replicas_destroyed : int;
  mutable replicas_corrupted : int;
  mutable cache_destroyed : int;  (** cache replica files removed *)
  mutable cache_corrupted : int;  (** cache replica files bit-flipped *)
  mutable zombie_rejected : int;  (** stale-epoch appends fenced off *)
  mutable zombie_accepted : int;  (** stale-epoch appends that went durable — must be 0 *)
  mutable cache_probe_fenced : int;  (** zombie cache writes refused at the fence *)
  mutable cache_probe_accepted : int;
      (** stale cache writes that went durable — must be 0 *)
}
(** The campaign's tallies: {!run} updates them as it goes and returns
    them in its report. *)

type report = {
  config : config;
  schedule : scheduled list;  (** the fault plan this campaign executed *)
  tally : tally;
  scrub : Homeguard_store.Scrub.counters;  (** first anti-entropy pass *)
  scrub_second : Homeguard_store.Scrub.counters;
      (** second pass — must find nothing to repair *)
  cache_scrub : Homeguard_store.Scrub.home_report option;
      (** cache-surface anti-entropy pass (when the cache is on) *)
  cache_scrub_second : Homeguard_store.Scrub.home_report option;
      (** second cache pass — must be healthy with zero repair bytes *)
  stats : Supervisor.stats;
  shards_killed : int;
  shards_recovered : int;
  invariants : invariant list;
}

val run : ?config:config -> ?schedule:scheduled list -> dir:string -> unit -> report
(** Run one campaign in [dir] (created if missing). Deterministic in
    [config.seed]; [?schedule] (default {!schedule_of_config}) replaces
    the fault plan — pass a subset to replay only those faults. Fault
    hooks, the injected sleeper and the solver clock are restored on
    every exit path. *)

val passed : report -> bool
val render : report -> string
