(** Batched parallel scheduling for detection workloads.

    Work items are split into contiguous batches; a [Mutex]/[Condition]
    work queue hands batches to [jobs] worker domains; per-batch results
    land in a slot array indexed by batch, so output order never depends
    on domain interleaving. The scheduler is generic: the detection
    engine supplies a function over a batch and merges any mutable state
    (per-domain detection contexts) after the join. *)

let default_jobs () = Stdlib.Domain.recommended_domain_count ()

(* -- crash isolation -------------------------------------------------------- *)

type exn_info = { exn : string; backtrace : string }

let exn_info_of e =
  { exn = Printexc.to_string e; backtrace = Printexc.get_backtrace () }

(* Several batches per domain so a slow batch (one heavy solver pair)
   doesn't leave the other domains idle at the tail. *)
let batches_per_domain = 4

let batches ~jobs (items : 'a array) =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let target = max 1 (min n (max 1 jobs * batches_per_domain)) in
    let size = (n + target - 1) / target in
    let count = (n + size - 1) / size in
    Array.init count (fun i ->
        let lo = i * size in
        Array.sub items lo (min size (n - lo)))
  end

(* A closeable FIFO guarded by a mutex. Workers block on the condition
   until an item arrives or the queue is closed and drained. *)
module Work_queue = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Mutex.t;
    c : Condition.t;
    mutable closed : bool;
  }

  let create () =
    { q = Queue.create (); m = Mutex.create (); c = Condition.create (); closed = false }

  let push t x =
    Mutex.lock t.m;
    Queue.push x t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  (* [None] once the queue is closed and empty. *)
  let pop t =
    Mutex.lock t.m;
    let rec take () =
      match Queue.take_opt t.q with
      | Some x ->
        Mutex.unlock t.m;
        Some x
      | None ->
        if t.closed then begin
          Mutex.unlock t.m;
          None
        end
        else begin
          Condition.wait t.c t.m;
          take ()
        end
    in
    take ()
end

(* Cooperative cancellation: [cancel] is polled before each batch runs.
   Once it reports [true], no further batch starts — on any domain — and
   the skipped batches' slots stay [None]. A batch already in flight
   finishes (its [f] may poll [cancel] itself for finer granularity), so
   a cancelled map overshoots the cancellation point by at most one
   batch per domain. *)
let map_batches ?(cancel = fun () -> false) ~jobs f (items : 'a array) =
  let bs = batches ~jobs items in
  let n = Array.length bs in
  if jobs <= 1 || n <= 1 then
    Array.map (fun b -> if cancel () then None else Some (f b)) bs
  else begin
    let queue = Work_queue.create () in
    Array.iteri (fun i b -> Work_queue.push queue (i, b)) bs;
    Work_queue.close queue;
    (* Distinct slots per batch: workers write disjoint indices. *)
    let slots = Array.make n None in
    let worker () =
      let rec loop () =
        if cancel () then ()
        else
          match Work_queue.pop queue with
          | None -> ()
          | Some (i, batch) ->
            slots.(i) <- Some (f batch);
            loop ()
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Stdlib.Domain.spawn worker) in
    List.iter Stdlib.Domain.join domains;
    slots
  end
