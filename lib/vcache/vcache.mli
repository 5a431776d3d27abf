(** Fleet-shared persistent verdict cache (DESIGN.md §14, §16).

    One {!store} per fleet, backed by a CRC-framed append-only journal
    ([cache.journal]) plus a compacted snapshot ([cache.snapshot]),
    replicated across [~replicas] roots and fenced by ownership epochs
    — the same durability contract as home journals. Opening runs the
    merged read-repairing recovery over the replica set (every record
    that survived anywhere is replayed; torn or corrupt frames are
    quarantined, never served); every durable append passes a
    {!Homeguard_store.Fence} check under the attaching owner's epoch
    before any byte is framed, so a superseded (zombie) handle can
    never poison the cache; {!scrub} converges the replicas at frame
    granularity. Shards attach a {!handle} each; the handle implements
    the detector's [shared_cache] hook and carries that shard's
    counters.

    Guarantees:
    - a hit returns a verdict byte-identical to what the local solve
      would have produced ([Sat] witnesses are rehydrated against the
      home's concrete configuration values from a template confirmed
      by two independent class members, validated against the concrete
      formula, and recomputed on any doubt);
    - [Unknown] verdicts are never served — they are stored only as
      stale markers with an attempt count and dropped at compaction;
    - concurrent lookups of one class compute it once (single-flight);
    - a failed journal append never fails the audit and never leaves
      the in-memory table inconsistent (write-ahead: memory applies
      only after the append returns). *)

module Detector = Homeguard_detector.Detector
module Solver = Homeguard_solver.Solver

type store
type handle

type counters = {
  mutable hits : int;  (** lookups served from the cache *)
  mutable misses : int;  (** lookups that ran the solver *)
  mutable inserts : int;  (** journaled entry writes (insert or update) *)
  mutable evicts : int;  (** entries dropped by the capacity bound *)
  mutable single_flight_merges : int;
      (** lookups that waited on another in-flight compute of the same
          class instead of solving *)
  mutable rehydrate_fallbacks : int;
      (** hits downgraded to a concrete solve because the witness
          template was unconfirmed, broken, or failed validation *)
  mutable conflicts : int;
      (** computed verdicts that contradicted a cached decisive
          verdict of the same class — 0 unless the abstraction is
          unsound; chaos and the property suite assert on it *)
  mutable stale_unknowns : int;
      (** lookups that found only a cached [Unknown] marker *)
  mutable journal_drops : int;
      (** cache appends dropped because the (fault-injected) journal
          write crashed; the entry is simply not cached *)
  mutable stale_writes : int;
      (** durable cache writes refused at the fence because this
          handle's ownership epoch was superseded — the zombie-shard
          trace; nothing reached disk or memory *)
  mutable pair_hits : int;
      (** whole app-pair audits served from the L1 pair tier *)
  mutable pair_misses : int;  (** app-pair audits planned and detected *)
  mutable pair_inserts : int;  (** pair matrices stored in the L1 tier *)
}

val zero_counters : unit -> counters
val add_counters : counters -> counters -> unit
(** [add_counters into from] accumulates [from] into [into]. *)

(** {2 Store lifecycle} *)

val open_store :
  ?fsync:bool ->
  ?max_entries:int ->
  ?replicas:string list ->
  ?fence_key:string ->
  dir:string ->
  unit ->
  store
(** Open (creating if needed) the cache rooted at [dir] plus the extra
    [~replicas] roots, running the merged read-repairing recovery over
    [cache.snapshot] then [cache.journal] across the whole set: every
    record that survived on at least one replica is replayed, and every
    stale, damaged or missing replica is rewritten with the merged
    stream. The fencing floor re-seeds from the highest epoch stamped
    on any frame, under [~fence_key] (default [dir]). [max_entries]
    (default 65536) bounds the table; overflow evicts oldest-first. *)

val close_store : store -> unit
val compact : store -> unit
(** Fold live decisive entries into the snapshot (on every replica) and
    truncate the journals. [Unknown] markers are dropped here — their
    TTL is the compaction epoch. *)

val scrub : store -> Homeguard_store.Scrub.home_report
(** Anti-entropy pass over the cache replica set at frame granularity:
    park the shared writer, quarantine damage, patch only the damaged
    or missing frames back from the surviving copies, reopen. Converges
    the replicas to one record-stream digest; a second pass is a no-op. *)

val replica_dirs : store -> string list
(** Primary directory first, then the replica roots. *)

val store_epoch : store -> int
(** The latest ownership epoch granted on this store. *)

val entries : store -> int
val pair_entries : store -> int
(** L1 pair-tier matrices currently held (in-memory, same
    [max_entries] bound, FIFO eviction). *)

val replay_damage : store -> int
(** Damaged frames dropped across all opens of this store. *)

val dump : store -> (string * string) list
(** [(class key, canonical entry text)] sorted by key — the
    replay-determinism and no-poisoned-entry invariants compare these
    across independent reopens. *)

val verdict_kind : store -> string -> string option
(** ["sat"], ["unsat"] or ["unknown"] for a class key, if present. *)

(** {2 Shard handles} *)

val attach : store -> owner:string -> handle
(** Attach one shard incarnation. Every attach is an ownership handover
    for [owner]: a strictly larger epoch is granted under the owner's
    fence key, so the previous incarnation's handle (a wedged zombie)
    goes stale and its durable writes are refused at the fence. *)

val owner : handle -> string
val counters : handle -> counters
val store_of : handle -> store

val handle_epoch : handle -> int
(** The ownership epoch this handle writes under. *)

val fence_key : handle -> string
(** The per-owner fence key this handle's epoch was granted under —
    chaos consults {!Homeguard_store.Fence.current} on it to decide
    whether a wedged handle has already been superseded. *)

val probe_write : handle -> [ `Accepted | `Fenced | `Dropped ]
(** One deliberately durable write under the handle's epoch — the chaos
    campaign's stale-writer probe, inserting an [Unsat] entry under the
    reserved key [~chaos/probe/<owner>]. A superseded handle must come
    back [`Fenced] with zero bytes written; [`Dropped] is a
    fault-injected journal crash. *)

val total_counters : store -> counters
(** Sum over every handle ever attached. *)

val hook : handle -> Detector.solve_query -> (unit -> Solver.verdict) -> Solver.verdict
(** The [shared_cache] implementation (L2: abstracted solve classes). *)

val pair_key : store -> Detector.pair_audit -> string
(** The exact L1 key of a pair audit: the pair fingerprint, each app's
    name, rule-structure digest and sorted rendered bindings, in install
    order, and the rendered same-device relation. Equal pair audits give
    equal keys, and changing any one component changes the key. Each
    app's part is memoized per store, so a key costs one join. *)

val pair_lookup : handle -> Detector.pair_audit -> Detector.pair_matrix option
val pair_store : handle -> Detector.pair_audit -> Detector.pair_matrix -> unit
(** The [pair_cache] implementation (L1): whole app-pair audit results
    under an exact key — both apps' rule digests, concrete
    configuration bindings, same-device relation and the pair
    fingerprint. Exactness is what lets a hit return the stored
    threats verbatim, witness bytes included. In-memory only: across
    restarts the journaled L2 tier re-warms solving instead. *)

val configure : handle -> Detector.config -> Detector.config
(** [configure h c] is [c] with [shared_cache] set to [hook h] and
    [pair_cache] set to the L1 tier. *)

val counters_text : counters -> string
(** One-line rendering for CLI stats. *)
