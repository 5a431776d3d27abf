(** Per-shard circuit breaker.

    A shard that keeps crashing must not keep receiving traffic: the
    breaker counts consecutive shard-level failures and, once tripped,
    sheds requests immediately with an honest retry hint instead of
    queueing them into a black hole. After [reset_timeout_ms] it lets
    probes through ([Half_open]); [half_open_probes] probe successes
    close it again, a probe failure re-opens it and restarts the
    clock.

    Only {e shard-level} faults (journal crashes, stalls detected by
    the health check) count — an app-level failure is the poison-app
    quarantine's business, not the breaker's. *)

module Deadline = Homeguard_serve.Deadline

type state = Closed | Open | Half_open

(* probe successes that close a half-open breaker; every fleet uses this *)
let half_open_probes = 2

type t = {
  clock : Deadline.clock;
  failure_threshold : int;  (** consecutive failures that trip it *)
  reset_timeout_ms : float;  (** Open → Half_open delay *)
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe_successes : int;
  mutable trips : int;
}

let create ~failure_threshold ~reset_timeout_ms clock =
  if failure_threshold < 1 then invalid_arg "Breaker.create: failure_threshold < 1";
  if reset_timeout_ms <= 0.0 then invalid_arg "Breaker.create: reset_timeout_ms <= 0";
  {
    clock;
    failure_threshold;
    reset_timeout_ms;
    state = Closed;
    consecutive_failures = 0;
    opened_at = 0.0;
    probe_successes = 0;
    trips = 0;
  }

let state t = t.state
let trips t = t.trips

let trip t =
  t.state <- Open;
  t.opened_at <- t.clock ();
  t.probe_successes <- 0;
  t.trips <- t.trips + 1

(** Admission decision for one request. [`Reject ms] carries the time
    until the next probe window — the honest retry hint. *)
let allow t =
  match t.state with
  | Closed -> `Admit
  | Half_open -> `Probe
  | Open ->
    let elapsed = t.clock () -. t.opened_at in
    if elapsed >= t.reset_timeout_ms then begin
      t.state <- Half_open;
      t.probe_successes <- 0;
      `Probe
    end
    else `Reject (t.reset_timeout_ms -. elapsed)

let note_success t =
  match t.state with
  | Closed -> t.consecutive_failures <- 0
  | Half_open ->
    t.probe_successes <- t.probe_successes + 1;
    if t.probe_successes >= half_open_probes then begin
      t.state <- Closed;
      t.consecutive_failures <- 0;
      t.probe_successes <- 0
    end
  | Open -> ()  (* a straggler finishing after the trip; ignore *)

let note_failure t =
  match t.state with
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.failure_threshold then trip t
  | Half_open -> trip t  (* the probe failed: back to Open, clock restarts *)
  | Open -> ()

(** A restarted shard starts probing immediately: its recovery already
    cost the backoff delay, so the breaker should not add a second
    full [reset_timeout_ms] of blind shedding on top. *)
let begin_probing t =
  if t.state <> Closed then begin
    t.state <- Half_open;
    t.probe_successes <- 0
  end

(** Remaining shed window in ms (0 unless [Open]). *)
let retry_after_ms t =
  match t.state with
  | Open -> Float.max 0.0 (t.reset_timeout_ms -. (t.clock () -. t.opened_at))
  | Closed | Half_open -> 0.0

let describe t =
  match t.state with
  | Closed -> "closed"
  | Open -> Printf.sprintf "open retry-after-ms=%.0f" (retry_after_ms t)
  | Half_open ->
    Printf.sprintf "half-open probes=%d/%d" t.probe_successes half_open_probes
