(** Replayable chaos reproductions: a campaign config, an explicit
    fault schedule (usually a {!Chaos.shrink}-minimized one), the
    invariant the schedule violates and the fence setting it violates
    it under, serialized to a line-oriented text file
    ([hg-chaos-repro v1]) so a failure found by one campaign can be
    checked in and re-run forever as a regression test.

    The double-sided regression contract of a checked-in repro:
    - replayed {e as recorded} (fence disabled — the deliberately
      reintroduced split-brain bug), the invariant must still be
      violated: the repro is alive and the harness still catches the
      bug it was minimized against;
    - replayed with the fence {e enforced}, the same schedule must
      pass: the fix holds. *)

type t = {
  config : Chaos.config;
  schedule : Chaos.scheduled list;
  invariant : string;  (** the invariant this schedule violates *)
  fence_enforced : bool;
      (** [false] replays with
          {!Homeguard_store.Fence.set_enforced}[ false] — the
          reintroduced bug the schedule was minimized against *)
}

val to_text : t -> string
val of_text : string -> t
(** Raises [Failure] with a line-precise message on any malformed or
    version-mismatched input, on a negative event field, and on a
    [shards], [homes], [steps] or [replicas] count below 1 — so every
    repro it returns can be replayed. It raises nothing else, whatever
    the bytes. [of_text (to_text t) = t]. *)

val save : t -> path:string -> unit
val load : path:string -> t
(** Raises [Sys_error] on unreadable paths, [Failure] on bad content. *)

val replay : ?enforce_fence:bool -> t -> dir:string -> Chaos.report
(** Run the recorded schedule under the recorded config in [dir].
    [?enforce_fence] (default [t.fence_enforced]) overrides the fence
    setting — replaying a bug repro with [~enforce_fence:true] checks
    that the fix holds. The fence is restored on every exit path. *)

val reproduces : Chaos.report -> t -> bool
(** The report violates the repro's recorded invariant. *)
