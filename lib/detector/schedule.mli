(** Batched parallel scheduling for detection workloads.

    The detection engine plans its work as an array of independent items
    (candidate rule pairs). This module partitions such an array into
    contiguous batches and fans the batches out across OCaml 5 domains
    through a [Mutex]/[Condition] work queue. Results are collected per
    batch and returned in batch order, so the caller's output is
    deterministic — identical at [~jobs:1] and [~jobs:N].

    This is the first step toward the ROADMAP's sharded/batched audit
    service: the scheduler is generic over the work item so the same
    fan-out can later drive extraction, simulation or remote shards. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

type exn_info = { exn : string; backtrace : string }
(** A captured per-item failure, transportable across domains. *)

val exn_info_of : exn -> exn_info
(** The printed exception and the current backtrace. The detector
    records a crashing pair this way, so the rest of its batch still
    runs and the audit completes with a structured error summary. *)

val batches : jobs:int -> 'a array -> 'a array array
(** Partition an array into contiguous, order-preserving batches sized
    for [jobs] domains (several batches per domain so the work queue
    load-balances uneven batches). Concatenating the result restores the
    input; an empty input yields no batches. *)

val map_batches :
  ?cancel:(unit -> bool) -> jobs:int -> ('a array -> 'b) -> 'a array -> 'b option array
(** [map_batches ~jobs f items] applies [f] to every batch of [items]
    and returns the per-batch results indexed in batch order, regardless
    of which domain ran which batch. [jobs <= 1] (or a single batch)
    runs inline on the calling domain; otherwise [jobs] worker domains
    pull batches from a shared work queue until it drains. [f] must be
    safe to run on several domains at once (give each call its own
    mutable state and merge afterwards).

    [?cancel] (default: never) is polled cooperatively before each batch
    starts; once it reports [true], no further batch runs on any domain
    and the skipped batches return [None]. Batches already in flight
    complete — a cancelled map overshoots by at most one batch per
    domain — so callers that need finer granularity should also poll
    [cancel] inside [f]. Without cancellation every slot is [Some]. *)
