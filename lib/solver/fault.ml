(** Test-only fault injection for the solver.

    The detection pipeline's crash isolation and three-valued verdicts
    need a way to make the solver raise, time out or exhaust its budget
    on demand. The hook is armed globally (disarmed by default and in
    production); whether a given solve fails is a pure function of the
    armed seed and the solve's key, so injection is deterministic and
    independent of call order and of how many domains run the audit —
    [detect_all ~jobs:1] and [~jobs:N] fail the same solves. *)

exception Injected of string
(** The injected crash (the [Raise] mode). *)

type mode =
  | Raise  (** raise {!Injected}: a worker crash *)
  | Exhaust  (** raise {!Budget.Exhausted} with {!Budget.Node_fuel} *)
  | Timeout  (** raise {!Budget.Exhausted} with {!Budget.Deadline} *)
  | Stall of float
      (** sleep that many wall-clock milliseconds, then continue: a slow
          solve rather than a failed one, for overload/deadline tests *)

type plan = {
  seed : int;
  rate_per_thousand : int;
  mode : mode;
  once : bool;
  only : string option;  (** fire only on keys containing this substring *)
}

let state : plan option Atomic.t = Atomic.make None

(* How a [Stall] actually passes time. Wall-clock by default; virtual-
   time harnesses (the chaos campaign, deadline tests) install their
   own so an injected stall advances the injectable clock instead of
   blocking CI for real milliseconds. *)
let default_sleeper ms = if ms > 0.0 then Unix.sleepf (ms /. 1000.0)
let sleeper : (float -> unit) Atomic.t = Atomic.make default_sleeper
let set_sleeper f = Atomic.set sleeper f
let reset_sleeper () = Atomic.set sleeper default_sleeper

(* Keys that already fired, for [once] plans. Guarded: several domains
   consult it concurrently. *)
let fired : (string, unit) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let arm ?(once = false) ?(seed = 1) ?only ~rate_per_thousand mode =
  Mutex.lock lock;
  Hashtbl.reset fired;
  Atomic.set state (Some { seed; rate_per_thousand; mode; once; only });
  Mutex.unlock lock

let disarm () =
  Mutex.lock lock;
  Atomic.set state None;
  Hashtbl.reset fired;
  Mutex.unlock lock

let armed () = Atomic.get state <> None

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  n = 0
  ||
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Order-independent decision: hash of (seed, key), not an RNG stream. *)
let selects plan key =
  (match plan.only with None -> true | Some sub -> contains ~sub key)
  && Hashtbl.hash (plan.seed, key) mod 1000 < plan.rate_per_thousand

let check key =
  match Atomic.get state with
  | None -> ()
  | Some plan ->
    if selects plan key then begin
      let fire =
        if not plan.once then true
        else begin
          Mutex.lock lock;
          let first = not (Hashtbl.mem fired key) in
          if first then Hashtbl.add fired key ();
          Mutex.unlock lock;
          first
        end
      in
      if fire then
        match plan.mode with
        | Raise -> raise (Injected key)
        | Exhaust ->
          raise
            (Budget.Exhausted
               { Budget.trip = Budget.Node_fuel; where = "fault injection: " ^ key })
        | Timeout ->
          raise
            (Budget.Exhausted
               { Budget.trip = Budget.Deadline; where = "fault injection: " ^ key })
        | Stall ms -> if ms > 0.0 then (Atomic.get sleeper) ms
    end
