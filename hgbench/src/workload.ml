(** What every workload takes and returns, and the loop helpers they
    share. A workload sets up, measures for [seconds], then checks its
    outputs against a slow reference; the runner turns its result into
    end-to-end or per-layer metrics. *)

type params = {
  seed : int;
  seconds : float;
  tracer : Spans.t option;
      (** a trace run: requests alternate between traced and untraced *)
  root : string;  (** scratch root, removed when the run ends *)
  small : bool;  (** tiny sizes, for the unit tests *)
}

(** A timed sample: when it was due or started, in seconds into the
    timed phase, and its value in ms. *)
type sample = { at_s : float; ms : float }

(** Work served: [units] requests in [busy_ms] of service time. *)
type served = { from_s : float; units : int; busy_ms : float }

type result = {
  dataset : string;  (** workload, size and seed; the corpus hash is added by the runner *)
  setup_s : float list;  (** one per set-up repetition *)
  latency : sample list;  (** untraced requests *)
  traced_ms : float list;  (** traced requests (trace runs only) *)
  served : served list;
  late_ms : float list;  (** harness lateness, per operation *)
  heap_mb : float;  (** live heap while the workload's state is held *)
  attempted : int;  (** operations sent plus oracle checks made *)
  failed : int;  (** unclean replies plus failed checks *)
  digest : string;  (** digest of the seed-determined outputs *)
  counts : Out.metric list;  (** per-layer counters, read at the call boundaries *)
  calib : Calib.t;  (** the machine's speed over the timed phase *)
}

(** Number of set-ups per run; [setup_s] is their median. *)
let setup_reps = 3

(** Set up [setup_reps] times, tearing down all but the last.
    [teardown] only closes: deleting files while the next set-up or the
    timed phase runs would charge the file system's clean-up to them,
    so the scratch root goes when the run ends.

    [setup i ~untimed] runs through [untimed] the steps whose time is
    left out of [setup_s]: creating an empty fleet, which is directory
    and file creation and nothing else. Its cost is the file system's:
    on one volume it took 12 µs or 0.3 ms per inode, all kernel time,
    depending on which directory the files went under.

    Each set-up's time is put on the reference speed ({!Calib}) by
    kernel runs just before and after it. *)
let repeated_setup setup teardown =
  let rec go i acc =
    let left_out = ref 0.0 in
    let untimed f =
      let v, ms = Clock.time f in
      left_out := !left_out +. ms;
      v
    in
    let cal = Calib.create () in
    let st, ms = Clock.time (fun () -> setup i ~untimed) in
    Calib.finish cal;
    let acc = ((ms -. !left_out) /. 1000.0 *. Calib.overall cal) :: acc in
    if i < setup_reps then begin
      teardown st;
      go (i + 1) acc
    end
    else (st, List.rev acc)
  in
  go 1 []

(** A tally of attempted and failed operations and checks; every
    failure keeps a note for the log. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 20 then t.notes <- what :: t.notes
  end

(** Request [i] of a trace run is traced when [i] is odd, so traced and
    untraced requests interleave under the same conditions. *)
let traced_request p i =
  match p.tracer with
  | None -> false
  | Some tr ->
    let traced = i land 1 = 1 in
    Spans.begin_request tr ~traced i;
    traced

(** What the timed phase records: latencies, split by whether their
    request was traced, the work served, and the machine's speed. *)
type meter = {
  pacer : Arrivals.pacer;
  calib : Calib.t;
  mutable plain : sample list;
  mutable traced : float list;
  mutable served : served list;
}

(** Start the timed phase. A compaction first gives every run the same
    collector state: otherwise the garbage the set-ups left (two closed
    fleets, say) is collected during whichever requests the major
    slices happen to land on. *)
let meter () =
  Gc.compact ();
  let calib = Calib.create () in
  { pacer = Arrivals.pacer (); calib; plain = []; traced = []; served = [] }

(** End the timed phase. *)
let stop m = Calib.finish m.calib

(** Seconds since the timed phase started. *)
let now_s m = Arrivals.elapsed_s m.pacer

let record m ~traced ~at_s ms =
  if traced then m.traced <- ms :: m.traced else m.plain <- { at_s; ms } :: m.plain

let serve m ~from_s ~units busy_ms = m.served <- { from_s; units; busy_ms } :: m.served

(** A closed-loop request: run [f] now and record it as one request
    served, then measure the machine if it is owed time. *)
let closed m ~traced f =
  let at_s = now_s m in
  let v, ms = Arrivals.call m.pacer f in
  record m ~traced ~at_s ms;
  serve m ~from_s:at_s ~units:1 ms;
  Calib.catch_up m.calib;
  v

(** Live heap in MB after a full major collection: the memory the
    system's state holds, free of the collector's timing. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** An app's rule model, extracted from its Groovy source. *)
let extract (e : Homeguard_corpus.App_entry.t) =
  let module Extract = Homeguard_symexec.Extract in
  (Extract.extract_source ~name:e.name e.source).Extract.app

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))
let threat_lines ts = List.map Homeguard_detector.Threat.to_string ts

let count name v = Out.metric name "count" (float_of_int v)
let ratio name num den =
  Out.metric name "ratio" (if den = 0 then 0.0 else float_of_int num /. float_of_int den)
