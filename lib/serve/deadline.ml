(** Request deadlines, propagated from the front end down to the solver.

    A deadline is fixed when the request is admitted and only shrinks
    from there: time spent queueing, extracting and planning all come
    out of the same allowance, and whatever remains when a solve starts
    becomes its {!Budget.spec} wall-clock timeout (via
    {!Budget.of_deadline}). The clock is injectable so tests can move
    time by hand. *)

module Budget = Homeguard_solver.Budget

type clock = unit -> float
(** Monotonic-enough milliseconds; only differences are used. *)

let wall_clock () = Unix.gettimeofday () *. 1000.0

type t = {
  clock : clock;
  expires_at : float option;  (** absolute, in the clock's timebase *)
}

let make ?(clock = wall_clock) ?timeout_ms () =
  { clock; expires_at = Option.map (fun ms -> clock () +. ms) timeout_ms }

let remaining_ms t =
  match t.expires_at with
  | None -> infinity
  | Some e -> Float.max 0.0 (e -. t.clock ())

let expired t =
  match t.expires_at with None -> false | Some e -> t.clock () >= e

(** The per-solve budget for whatever remains of the request: the base
    budget with its timeout clamped to the remaining allowance. An
    unbounded deadline returns [base] unchanged. *)
let budget_spec ~base t =
  match t.expires_at with
  | None -> base
  | Some _ -> Budget.of_deadline ~base (remaining_ms t)

(** A cancellation probe for {!Detector.audit_pairs} and friends:
    batches stop being claimed the moment the deadline passes. *)
let cancel t () = expired t
