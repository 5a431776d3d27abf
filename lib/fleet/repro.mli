(** Replayable chaos reproductions: a campaign config, an explicit
    fault schedule (usually a {!shrink}-minimized one), the
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
      (** [false] replays under
          {!Homeguard_store.Fence.with_enforced}[ false] — the
          reintroduced bug the schedule was minimized against *)
}

val to_text : t -> string
val of_text : string -> t
(** Raises [Failure] with a line-precise message on any malformed or
    version-mismatched input, on a negative event field, on a
    [shards], [homes], [steps] or [replicas] count below 1, and on any
    value of a one-value setting ({!Chaos.fixed_settings}) other than
    the one {!to_text} writes — so every repro it returns can be
    replayed. It raises nothing else, whatever the bytes.
    [of_text (to_text t) = t]. *)

val save : t -> path:string -> unit
val load : path:string -> t
(** Raises [Sys_error] on unreadable paths, [Failure] on bad content. *)

val replay : t -> dir:string -> Chaos.report
(** Run the recorded schedule under the recorded config and fence
    setting in [dir]; replaying a bug repro as
    [{ r with fence_enforced = true }] checks that the fix holds. The
    fence is restored on every exit path. *)

val reproduces : Chaos.report -> t -> bool
(** The report violates the repro's recorded invariant. *)

val shrink : dir:string -> t -> t * int
(** [shrink ~dir r] delta-debugs (ddmin) [r]'s schedule down to a
    locally-minimal event list that still violates [r.invariant],
    replaying each trial ({!replay}, so under [r]'s config and fence
    setting) in a fresh subdirectory of [dir]. Returns [r] with the
    minimal schedule and the number of trial campaigns run. Raises
    [Invalid_argument] if [r]'s own schedule does not violate the
    invariant. *)
