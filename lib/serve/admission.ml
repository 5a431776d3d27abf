(** Admission control: bounded per-home and global work queues with
    explicit backpressure.

    Every request must win a ticket before any work happens; a request
    that cannot be admitted is told so immediately, with a retry hint
    derived from the estimated service time and the depth of the queue
    ahead of it — overload surfaces as a fast, explicit [busy] reply
    instead of unbounded queueing and silent latency collapse.

    Interactive requests (install-time audits, a user is waiting) may
    use the whole global allowance; background work (full re-audits,
    post-recovery sweeps) is capped below it, so a burst of maintenance
    can never starve the interactive path. *)

type priority = Interactive | Background

let max_global = 16

(* global slots background work may never occupy *)
let interactive_reserve = 2

(* per-request service estimate for retry hints *)
let est_service_ms = 50

type t = {
  max_per_home : int;
  mutex : Mutex.t;
  mutable per_home : (string * int) list;
  mutable global : int;
}

type ticket = { home : string; mutable released : bool }

let create ?(max_per_home = 4) () =
  if max_per_home < 1 then invalid_arg "Admission.create: max_per_home < 1";
  {
    max_per_home;
    mutex = Mutex.create ();
    per_home = [];
    global = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let home_count t home =
  match List.assoc_opt home t.per_home with Some n -> n | None -> 0

let set_home_count t home n =
  t.per_home <-
    (if n = 0 then List.remove_assoc home t.per_home
     else if List.mem_assoc home t.per_home then
       List.map (fun (h, v) -> if h = home then (h, n) else (h, v)) t.per_home
     else (home, n) :: t.per_home)

(** How long until our turn, assuming the [depth] requests ahead of us
    drain at [est_service_ms] each. Scaling with the whole depth — not
    just the excess over the bound, which is ~1 for every refused
    client — spreads retries out proportionally to the actual backlog
    instead of having the entire shed cohort hammer back after one
    constant interval. Never zero: the caller must back off, not
    spin. *)
let retry_after ~depth = est_service_ms * max 1 depth

let try_admit t ~home priority =
  with_lock t @@ fun () ->
  let global_cap =
    match priority with
    | Interactive -> max_global
    | Background -> max_global - interactive_reserve
  in
  let here = home_count t home in
  if here >= t.max_per_home then Error (retry_after ~depth:here)
  else if t.global >= global_cap then Error (retry_after ~depth:t.global)
  else begin
    set_home_count t home (here + 1);
    t.global <- t.global + 1;
    Ok { home; released = false }
  end

let release t ticket =
  with_lock t @@ fun () ->
  if not ticket.released then begin
    ticket.released <- true;
    set_home_count t ticket.home (max 0 (home_count t ticket.home - 1));
    t.global <- max 0 (t.global - 1)
  end

let in_flight t = with_lock t @@ fun () -> t.global

(** Fraction of the global allowance in use, in [0, 1]. The shed policy
    compares this against its threshold. *)
let occupancy t =
  with_lock t @@ fun () -> float_of_int t.global /. float_of_int max_global
