(** Load shedding: structured refusals and degraded results. A shed
    audit may report threats found so far but never "no threat". *)

type reason =
  | Deadline_expired
  | Overloaded
  | Shard_unavailable of { shard : string; retry_after_ms : int }
      (** breaker open or shard down awaiting restart *)

type 'a outcome =
  | Completed of 'a
  | Degraded of { reason : reason; partial : 'a option; shard : string option }
      (** [partial] is a lower bound on the threats present, never a
          clean bill; [shard] attributes the degradation to a worker
          when known *)

val describe_reason : reason -> string

val should_shed : Admission.t -> threshold:float -> Admission.priority -> bool
(** Interactive work is never shed here (it is bounded at admission);
    background work is shed once occupancy reaches [threshold]. *)

val conclusive : 'a outcome -> bool
(** Only a [Completed] outcome may support a "no threat" conclusion. *)
