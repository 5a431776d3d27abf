(** The machine's speed, measured while a workload runs, and the scale
    that puts every timing on one reference speed.

    The benchmark's host is shared. Its other tenants slow this process
    by 30-60% for seconds to minutes at a time, often for whole runs,
    while the process keeps its CPU and almost no steal is reported. A
    fixed kernel, run between requests, measures that slowdown as it
    happens: a timing taken while the kernel took [k] ms is multiplied
    by [reference_ms / k], with [k] the kernel's median within
    [window_s] of the timing. The kernel uses the standard library only,
    so no change to HomeGuard changes its speed.

    The kernel allocates and drops small blocks, as the workloads do,
    and tracks them better than kernels that do not allocate: integer
    arithmetic, random reads of 1 to 64 MB arrays and a sequential scan
    barely slowed while a [corpus-audit] pass slowed by half, and
    sorting and looking up in a preallocated working set followed the
    pass less closely. Fitted over slices of recorded runs, the slope of
    each workload's log latency against the kernel's log time was 0.77
    to 1.11; hgbench/README.md gives the fits and why the scale uses 1
    for every workload. *)

module IM = Map.Make (Int)

(** One unit of fixed work, about a fifth of a millisecond on a quiet
    2.1 GHz Xeon, so that it fits between open-loop requests: build a
    list of 800 pseudo-random ints, sort it and fold it into a balanced
    tree, all garbage when it returns. Every run does the same work. *)
let kernel () =
  let st = ref 7 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  let l = List.sort Int.compare (List.init 800 (fun _ -> next ())) in
  let m = List.fold_left (fun m x -> IM.add (x land 4095) x m) IM.empty l in
  ignore (Sys.opaque_identity (IM.cardinal m))

(* Words one kernel run allocates. *)
let kernel_words =
  let w0 = Gc.minor_words () in
  kernel ();
  Gc.minor_words () -. w0

(* [Gc.minor_words] at the last minor collection the kernel asked for. *)
let emptied_at = ref 0.0

(* A minor collection inside a timed run would charge the kernel for the
   workload's young data and promote the kernel's own, leaving the
   workload's major collector more to do. So when the words allocated
   since the kernel last emptied the minor heap, by anyone, leave too
   little room for a run, the minor heap is emptied first, untimed. *)
let make_room () =
  let room = float_of_int (Gc.get ()).Gc.minor_heap_size in
  if Gc.minor_words () -. !emptied_at +. kernel_words > room then begin
    Gc.minor ();
    emptied_at := Gc.minor_words ()
  end

(** The kernel's time at the reference speed, in ms: about its median
    on the measuring machine in a quiet period. A timing scaled to the
    reference speed reads in ms as it would have on that machine. *)
let reference_ms = 0.18

(** Share of the timed phase spent measuring the machine. *)
let share = 0.08

(** A timing is scaled by the kernel runs within this many seconds of
    it. *)
let window_s = 1.0

(** Kernel runs at the start and at the end of every timed phase, so
    every timing has runs on both sides. *)
let anchor_runs = 5

type t = {
  start_ns : int64;  (** the start of the timed phase *)
  mutable at_s : float list;  (** when each kernel run started, most recent first *)
  mutable ms : float list;  (** how long it took *)
  mutable spent_ms : float;
  mutable fastest_ms : float;
}

let run_once t =
  make_room ();
  let t0 = Clock.now_ns () in
  kernel ();
  let t1 = Clock.now_ns () in
  let ms = Clock.elapsed_ms t0 t1 in
  t.at_s <- Clock.elapsed_s t.start_ns t0 :: t.at_s;
  t.ms <- ms :: t.ms;
  t.spent_ms <- t.spent_ms +. ms;
  t.fastest_ms <- Float.min t.fastest_ms ms

let rec runs t n = if n > 0 then (run_once t; runs t (n - 1))

(** Measure the machine [anchor_runs] times, then start the phase: the
    anchor runs lie just before its start. *)
let create () =
  let t = { start_ns = Clock.now_ns (); at_s = []; ms = []; spent_ms = 0.0; fastest_ms = infinity } in
  runs t anchor_runs;
  let start_ns = Clock.now_ns () in
  let shift = Clock.elapsed_s t.start_ns start_ns in
  { t with start_ns; at_s = List.map (fun s -> s -. shift) t.at_s }

let owed t = t.spent_ms < share *. Clock.elapsed_ms t.start_ns (Clock.now_ns ())

(* The first run after a request took about a fifth longer than the
   next ones; it is run but not recorded. *)
let warm_up t =
  let (), ms =
    Clock.time (fun () ->
        make_room ();
        kernel ())
  in
  t.spent_ms <- t.spent_ms +. ms

(** Between closed-loop requests: run the kernel until it has had its
    share of the time so far. *)
let catch_up t =
  if owed t then begin
    warm_up t;
    while owed t do
      run_once t
    done
  end

(** While an open-loop generator waits for [due_ns]: warm up and run the
    kernel while it is owed time and the runs end well before [due_ns],
    so that no request waits for them. The fastest run so far sizes the
    margin: one slow run, preempted say, must not make every later wait
    look too short. *)
let idle t ~due_ns =
  let left_ms () = Clock.elapsed_ms (Clock.now_ns ()) due_ns in
  let fastest = t.fastest_ms in
  if owed t && left_ms () > 6.0 *. fastest then begin
    warm_up t;
    while owed t && left_ms () > 3.0 *. fastest do
      run_once t
    done
  end

(** Close the timed phase. *)
let finish t = runs t anchor_runs

(* The factor that puts a timing taken while the kernel took [ms] on
   the reference speed. *)
let factor ms = reference_ms /. ms

(** [scale t] is, for a time in seconds into the timed phase, the factor
    that puts a timing taken then on the reference speed, from the
    median kernel time within [window_s] of it, or of the nearest run
    when none is that close. *)
let scale t =
  let at = Array.of_list (List.rev t.at_s) and ms = Array.of_list (List.rev t.ms) in
  let n = Array.length at in
  (* first index whose time is >= x *)
  let lower x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if at.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  (* samples close together share a window; its median is sorted once *)
  let medians = Hashtbl.create 1024 in
  let median lo hi =
    match Hashtbl.find_opt medians (lo, hi) with
    | Some m -> m
    | None ->
      let m = Sample.median (Array.to_list (Array.sub ms lo (hi - lo))) in
      Hashtbl.replace medians (lo, hi) m;
      m
  in
  fun s ->
    if n = 0 then 1.0
    else
      let lo = lower (s -. window_s) and hi = lower (s +. window_s) in
      if hi > lo then factor (median lo hi)
      else
        let i = min (n - 1) lo and j = max 0 (lo - 1) in
        factor (if Float.abs (at.(i) -. s) < Float.abs (at.(j) -. s) then ms.(i) else ms.(j))

(** The factor that puts a timing taken during the whole phase on the
    reference speed. *)
let overall t = factor (Sample.median t.ms)
