(** Load shedding: the structured way a request is refused or cut short.

    The one invariant that matters: a shed or degraded audit may report
    the threats it did find, but it may {e never} claim "no threat" —
    an attacker must not be able to launder a poison workload into a
    clean bill of health by overloading the detector (the conservatism
    rule of {!Homeguard_detector.Detector.audit_result.shed}, lifted to
    the request level). *)

type reason =
  | Deadline_expired  (** the request's allowance ran out *)
  | Overloaded  (** background work shed to protect interactive latency *)
  | Shard_unavailable of { shard : string; retry_after_ms : int }
      (** the owning shard's circuit breaker is open, or the shard is
          down awaiting restart; retry after the hint *)

type 'a outcome =
  | Completed of 'a
  | Degraded of { reason : reason; partial : 'a option; shard : string option }
      (** [partial] is whatever was computed before the cut — a lower
          bound on the threats present, never a clean bill. [shard]
          names the shard that degraded the request, when it is known,
          so operators can attribute shed traffic to a failing worker. *)

let describe_reason = function
  | Deadline_expired -> "deadline-expired"
  | Overloaded -> "overloaded"
  | Shard_unavailable { shard; retry_after_ms } ->
    Printf.sprintf "shard-unavailable shard=%s retry-after-ms=%d" shard retry_after_ms

(** Whether to shed a unit of work given current occupancy. Interactive
    work is never shed here (it is bounded at admission instead);
    background work is shed once occupancy reaches the threshold. *)
let should_shed admission ~threshold = function
  | Admission.Interactive -> false
  | Admission.Background -> Admission.occupancy admission >= threshold

(** [true] when the outcome may support a "no threat" conclusion:
    only a completed, non-degraded result can. *)
let conclusive = function Completed _ -> true | Degraded _ -> false
