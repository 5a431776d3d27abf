(** One shard worker: a broker plus the homes the supervisor assigned
    it, each recovered from its own journal directory under the fleet
    root. Ownership is logical — rebalance and restart are both "open
    the journal, recover, serve". *)

module Home = Homeguard_store.Home
module Broker = Homeguard_serve.Broker

type t

(** {2 On-disk layout}

    A fleet root holds one directory per home and one for the verdict
    cache, under each replica root: the primary root is [fleet_dir]
    itself and replica [k] (k >= 1) is [fleet_dir/r<k>], so an R=1
    fleet keeps the original layout. Where a home lives does not depend
    on which shard owns it. *)

val replica_roots : fleet_dir:string -> replicas:int -> string list
(** The [replicas] replica roots, primary first. *)

val home_dirs : fleet_dir:string -> replicas:int -> string -> string list
(** All of a home's replica directories, primary first:
    [h_<name>] under each replica root. [<name>] is the home id with
    every byte outside [[A-Za-z0-9_-]] written as ['.'] and two
    lowercase hex digits, so distinct ids get distinct directories. *)

val home_entries : fleet_dir:string -> string list
(** The home directory names ([h_...]) under the primary root,
    sorted. *)

val cache_dirs : fleet_dir:string -> replicas:int -> string list
(** The verdict cache's replica directories, primary first: [vcache]
    under each replica root. *)

val open_ :
  broker_config:Broker.config ->
  fsync:bool ->
  mode:Home.mode ->
  replicas:int ->
  epoch_of:(string -> int) ->
  on_recovery:(string -> Home.recovery_report -> unit) ->
  ?vcache:Homeguard_vcache.Vcache.handle ->
  fleet_dir:string ->
  home_ids:string list ->
  unit ->
  t
(** Open (recovering) every assigned home. All-or-nothing: on a
    recovery crash the already-opened homes are closed and the
    exception propagates — the supervisor's restart backoff owns the
    retry. Each home opens fenced at [epoch_of id], the ownership epoch
    granted for it. [on_recovery] fires per home as it opens, including on
    attempts that later fail, so damage surfaced by a recovery is never
    erased by a clean retry of the repaired journal. *)

val broker : t -> Broker.t

val vcache : t -> Homeguard_vcache.Vcache.handle option
(** The cache handle this incarnation was opened with. After the shard
    is wedged and replaced, the handle's epoch is stale — chaos drives
    it against the fence via {!Homeguard_vcache.Vcache.probe_write}. *)

val add_home : t -> string -> Home.recovery_report
(** Take ownership of one home (rebalance-in): journal-backed
    recovery. *)

val close : t -> unit
(** Close every home. Also the "kill" path in chaos campaigns: durable
    state is only what the journal holds. *)
