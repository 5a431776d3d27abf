(** Resource budgets for constraint solving, and the three-valued
    verdict that makes exhaustion explicit.

    Historically {!Search.solve} answered [model option], so a tripped
    depth cap was indistinguishable from "unsat" — a real threat could
    read as "no threat" (the silent-soundness hole this module closes).
    A budget carries propagation-step fuel, search-node fuel and an
    optional wall-clock deadline; when any of them runs out the solver
    reports {!Unknown} with the {!reason} recording which budget tripped
    and where, never [Unsat]. *)

(** Which resource ran out. *)
type trip =
  | Prop_fuel  (** propagation-step fuel exhausted *)
  | Node_fuel  (** search-node fuel exhausted *)
  | Deadline  (** wall-clock deadline passed *)
  | Depth  (** the backtracking-depth cap was hit *)

type reason = { trip : trip; where : string }

exception Exhausted of reason

let trip_to_string = function
  | Prop_fuel -> "propagation fuel exhausted"
  | Node_fuel -> "search-node fuel exhausted"
  | Deadline -> "deadline exceeded"
  | Depth -> "depth cap reached"

let reason_to_string r = Printf.sprintf "%s in %s" (trip_to_string r.trip) r.where

(** Three-valued solver answer. [Unknown] is an honest "ran out of
    budget before deciding" — it must never be collapsed into [Unsat]. *)
type 'a verdict = Sat of 'a | Unsat | Unknown of reason

(** Immutable budget configuration. [None] means unlimited. *)
type spec = {
  prop_steps : int option;  (** atom revisions across the whole solve *)
  search_nodes : int option;  (** backtracking-search nodes visited *)
  timeout_ms : float option;  (** wall-clock deadline per solve *)
}

let unlimited_spec = { prop_steps = None; search_nodes = None; timeout_ms = None }

(* Generous for rule-sized formulas: the corpus audit never comes close
   (a typical overlap solve visits tens of nodes), so honesty costs
   nothing on the real workload; a pathological pair still terminates. *)
let default_spec =
  { prop_steps = Some 2_000_000; search_nodes = Some 100_000; timeout_ms = None }

(** Budget derived from a single search-node knob (the CLI's
    [--solver-budget]): propagation fuel scales with it, [n <= 0] means
    unlimited. *)
let spec_of_nodes n =
  if n <= 0 then unlimited_spec
  else { prop_steps = Some (Stdlib.min max_int (50 * n)); search_nodes = Some n; timeout_ms = None }

(** Budget derived from a request deadline: the caller has
    [remaining_ms] of wall-clock left, so no single solve may run past
    it. Fuel limits come from [base] (default {!default_spec}); the
    solve timeout is the remaining time, clamped below any timeout
    [base] already imposed. A non-positive remainder yields an
    already-expired budget — the solve reports [Unknown] at its first
    deadline poll instead of starting work it cannot finish. *)
let of_deadline ?(base = default_spec) remaining_ms =
  let remaining = Float.max 0.0 remaining_ms in
  let timeout_ms =
    match base.timeout_ms with
    | None -> Some remaining
    | Some t -> Some (Float.min t remaining)
  in
  { base with timeout_ms }

(** Escalated retry budget: every finite limit multiplied by 8. *)
let escalate spec =
  let factor = 8 in
  let mul = Option.map (fun n -> if n > max_int / factor then max_int else n * factor) in
  {
    prop_steps = mul spec.prop_steps;
    search_nodes = mul spec.search_nodes;
    timeout_ms = Option.map (fun ms -> ms *. float_of_int factor) spec.timeout_ms;
  }

(** Stable cache-key component: verdicts computed under different specs
    must never answer for each other (an [Unknown] under a small budget
    is not a definitive answer under a larger one). Any finite
    wall-clock timeout collapses to ["tdl"]: deadline-derived specs
    differ per request only in their remaining milliseconds, and a
    definitive [Sat]/[Unsat] does not depend on how much wall clock was
    left when it was computed. Fuel
    tiers ([prop_steps]/[search_nodes]) stay exact — [Unknown] verdicts
    are budget-relative, and any cache serving them across specs must
    key on the fuel tier. *)
let cache_fingerprint spec =
  let f = function None -> "inf" | Some n -> string_of_int n in
  Printf.sprintf "p%s.n%s.%s" (f spec.prop_steps) (f spec.search_nodes)
    (match spec.timeout_ms with None -> "tinf" | Some _ -> "tdl")

(* How a deadline reads the time: [Unix.gettimeofday]-like seconds.
   Wall clock by default; virtual-time harnesses (the chaos campaign,
   deadline tests) install their own process default so solver
   deadlines are deterministic. *)
let wall_clock = Unix.gettimeofday
let default_clock : (unit -> float) Atomic.t = Atomic.make wall_clock
let set_clock f = Atomic.set default_clock f
let reset_clock () = Atomic.set default_clock wall_clock

(** Mutable fuel state threaded through one solve. *)
type t = {
  mutable prop_fuel : int;  (** [max_int] = unlimited *)
  mutable node_fuel : int;
  deadline : float option;  (** absolute time on [clock] *)
  clock : unit -> float;
  mutable ticks : int;  (** throttles the deadline clock read *)
}

let start spec =
  let clock = Atomic.get default_clock in
  {
    prop_fuel = Option.value ~default:max_int spec.prop_steps;
    node_fuel = Option.value ~default:max_int spec.search_nodes;
    deadline = Option.map (fun ms -> clock () +. (ms /. 1000.0)) spec.timeout_ms;
    clock;
    ticks = 0;
  }

let unlimited () = start unlimited_spec

(* The deadline is polled every 256 spends: a clock read per atom
   revision would dominate the solve it is guarding. *)
let check_deadline b ~where =
  match b.deadline with
  | None -> ()
  | Some dl ->
    b.ticks <- b.ticks + 1;
    if b.ticks land 255 = 0 && b.clock () > dl then
      raise (Exhausted { trip = Deadline; where })

let spend_prop b ~where =
  if b.prop_fuel <> max_int then begin
    if b.prop_fuel <= 0 then raise (Exhausted { trip = Prop_fuel; where });
    b.prop_fuel <- b.prop_fuel - 1
  end;
  check_deadline b ~where

let spend_node b ~where =
  if b.node_fuel <> max_int then begin
    if b.node_fuel <= 0 then raise (Exhausted { trip = Node_fuel; where });
    b.node_fuel <- b.node_fuel - 1
  end;
  check_deadline b ~where
