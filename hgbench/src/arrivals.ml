(** Open-loop arrivals: a seeded Poisson schedule of due times and a
    pacer that sends each operation at its due time, whatever the
    system is doing. Latency is timed from the due time, so a stall
    charges its wait to every operation queued behind it; how late the
    generator itself sent an operation it was free to send is recorded
    apart, as a check on the harness. *)

(** [poisson ~seed ~rate ~min_n seconds] is the due offsets, in seconds
    from the start of the run, of a Poisson process at [rate] per second:
    every one up to [seconds], and at least [min_n] of them. Gaps are
    exponential with mean [1 / rate]. The same seed gives the same
    schedule, and a longer run extends it. *)
let poisson ~seed ~rate ~min_n seconds =
  if rate <= 0.0 then invalid_arg "Arrivals.poisson: rate <= 0";
  let st = Random.State.make [| 0xa441; seed |] in
  let rec go acc t n =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t > seconds && n >= min_n then Array.of_list (List.rev acc) else go (t :: acc) t (n + 1)
  in
  go [] 0.0 0

type pacer = {
  start_ns : int64;
  mutable free_ns : int64;  (** when the previous operation completed *)
  mutable late_ms : float list;
      (** per operation: how long after max(due, free) it was sent *)
}

let pacer () =
  let now = Clock.now_ns () in
  { start_ns = now; free_ns = now; late_ms = [] }

let due_ns p offset_s = Int64.add p.start_ns (Int64.of_float (offset_s *. 1e9))

(* Spin until the due time: the send lands within microseconds of it,
   and the core stays busy, so a request never pays for waking an idle
   virtual CPU, a cost the machine's other tenants set, not the code.
   [idle] may use the wait, as long as it returns before [due]. *)
let wait_until ?(idle = ignore) due =
  while Clock.now_ns () < due do
    idle due
  done

(** Send one operation due at [offset_s]: wait for its due time, run
    [f], and return its result with the latency from the due time and
    the service time, both in ms. [idle] is called with the due time
    while the generator waits for it. *)
let send ?idle p offset_s f =
  let due = due_ns p offset_s in
  wait_until ?idle due;
  let sent = Clock.now_ns () in
  let ready = if due > p.free_ns then due else p.free_ns in
  p.late_ms <- Clock.elapsed_ms ready sent :: p.late_ms;
  let v = f () in
  let done_ = Clock.now_ns () in
  p.free_ns <- done_;
  (v, Clock.elapsed_ms due done_, Clock.elapsed_ms sent done_)

(** Closed loop: run [f] now. Its lateness is the harness's own gap
    since the previous operation completed; latency is service time. *)
let call p f =
  let sent = Clock.now_ns () in
  p.late_ms <- Clock.elapsed_ms p.free_ns sent :: p.late_ms;
  let v = f () in
  let done_ = Clock.now_ns () in
  p.free_ns <- done_;
  (v, Clock.elapsed_ms sent done_)

let elapsed_s p = Clock.elapsed_s p.start_ns (Clock.now_ns ())
