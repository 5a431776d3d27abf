(** Fleet-shared persistent verdict cache: journaled store, witness
    templates, single-flight — see the .mli contract and DESIGN.md §14. *)

module Detector = Homeguard_detector.Detector
module Rule = Homeguard_rules.Rule
module Rule_json = Homeguard_rules.Rule_json
module Term = Homeguard_solver.Term
module Solver = Homeguard_solver.Solver
module Budget = Homeguard_solver.Budget
module Formula = Homeguard_solver.Formula
module Store = Homeguard_solver.Store
module Domain = Homeguard_solver.Domain
module Fault = Homeguard_solver.Fault
module Journal = Homeguard_store.Journal
module Rjournal = Homeguard_store.Rjournal
module Fence = Homeguard_store.Fence
module Scrub = Homeguard_store.Scrub

(* -- entries --------------------------------------------------------------- *)

(* How a Sat witness binding relates to the configuration slots: a
   class-invariant literal, or a clamped offset from slot [j]'s value
   (offset 0 = equality; the only string form). Confirmed templates are
   derived from two independent class members and re-validated against
   the concrete formula on every hit. *)
type wslot = Lit of Domain.value | Cfg of int * int

type tstate =
  | Probe  (** one sample: next hit recomputes to confirm the template *)
  | Confirmed of (string * wslot) list
  | Broken  (** no consistent template: verdicts hit, witnesses recompute *)

type sat_entry = {
  vals : Abstract.svalue array;  (** slot values of the first member *)
  model : (string * Domain.value) list;  (** its concrete witness *)
  mutable template : tstate;
}

type entry =
  | Sat_e of sat_entry
  | Unsat_e
  | Unknown_e of { reason : string; mutable attempts : int }
      (** stale marker, never served as a verdict; [attempts] is the
          escalation count, the TTL is the compaction epoch *)

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evicts : int;
  mutable single_flight_merges : int;
  mutable rehydrate_fallbacks : int;
  mutable conflicts : int;
  mutable stale_unknowns : int;
  mutable journal_drops : int;
  mutable stale_writes : int;
  mutable pair_hits : int;
  mutable pair_misses : int;
  mutable pair_inserts : int;
}

let zero_counters () =
  {
    hits = 0;
    misses = 0;
    inserts = 0;
    evicts = 0;
    single_flight_merges = 0;
    rehydrate_fallbacks = 0;
    conflicts = 0;
    stale_unknowns = 0;
    journal_drops = 0;
    stale_writes = 0;
    pair_hits = 0;
    pair_misses = 0;
    pair_inserts = 0;
  }

let add_counters into from =
  into.hits <- into.hits + from.hits;
  into.misses <- into.misses + from.misses;
  into.inserts <- into.inserts + from.inserts;
  into.evicts <- into.evicts + from.evicts;
  into.single_flight_merges <- into.single_flight_merges + from.single_flight_merges;
  into.rehydrate_fallbacks <- into.rehydrate_fallbacks + from.rehydrate_fallbacks;
  into.conflicts <- into.conflicts + from.conflicts;
  into.stale_unknowns <- into.stale_unknowns + from.stale_unknowns;
  into.journal_drops <- into.journal_drops + from.journal_drops;
  into.stale_writes <- into.stale_writes + from.stale_writes;
  into.pair_hits <- into.pair_hits + from.pair_hits;
  into.pair_misses <- into.pair_misses + from.pair_misses;
  into.pair_inserts <- into.pair_inserts + from.pair_inserts

let counters_text c =
  Printf.sprintf
    "hits=%d misses=%d inserts=%d evicts=%d single-flight=%d fallbacks=%d \
     conflicts=%d stale-unknowns=%d journal-drops=%d stale-writes=%d pair-hits=%d \
     pair-misses=%d pair-inserts=%d"
    c.hits c.misses c.inserts c.evicts c.single_flight_merges c.rehydrate_fallbacks
    c.conflicts c.stale_unknowns c.journal_drops c.stale_writes c.pair_hits
    c.pair_misses c.pair_inserts

type store = {
  dir : string;
  dirs : string list;  (** primary first, then replica roots *)
  fence_base : string;  (** fence-key namespace for this cache surface *)
  mutable epoch : int;  (** latest ownership epoch granted on this store *)
  fsync : bool;
  max_entries : int;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  queue : string Queue.t;
      (** insertion order, for oldest-first eviction: each live key once,
          at its latest insertion (see [prune_queue]) *)
  inflight : (string, Condition.t) Hashtbl.t;
  pair_table : (string, Detector.pair_matrix) Hashtbl.t;
      (** L1: whole app-pair audit results, exact-keyed. In-memory
          only — threats are served back verbatim within a process;
          across restarts the journaled verdict tier below re-warms
          the solver layer instead *)
  pair_queue : string Queue.t;  (** L1 insertion order, FIFO eviction *)
  key_parts : (string, key_part) Hashtbl.t;
      (** app-name → the app's L1 key part, memoized; see
          [app_key_part] *)
  mutable journal : Rjournal.t option;
  mutable handles : handle list;
  mutable damage : int;  (** damaged/undecodable frames dropped on opens *)
}

(* One app's share of every L1 key it appears in: ["name:digest"] and
   its rendered configuration bindings, for the app value and bindings
   list it was rendered from. *)
and key_part = {
  kp_app : Rule.smartapp;
  kp_digest : string;  (** rule-structure digest of [kp_app] *)
  kp_bindings : (string * Term.t) list;
  kp_text : string;
}

and handle = {
  h_owner : string;
  h_key : string;  (** per-owner fence key: one zombie never fences its peers *)
  h_epoch : int;  (** the ownership epoch this incarnation writes under *)
  h_counters : counters;
  h_store : store;
}

let cache_files = [ "cache.snapshot"; "cache.journal" ]
let snap_paths st = List.map (fun d -> Filename.concat d "cache.snapshot") st.dirs
let journal_paths st = List.map (fun d -> Filename.concat d "cache.journal") st.dirs

(* Fence keys are per owner (shard slot), not per store: granting shard
   s2's replacement a fresh epoch must fence the wedged s2 zombie while
   leaving every other live shard's handle valid. *)
let owner_key st owner = st.fence_base ^ "#" ^ owner

(* -- serialization --------------------------------------------------------- *)

(* One payload per journal frame: tab-separated escaped fields; nested
   lists join with '\x01', nested pairs with '\x02' — both control
   characters, so [String.escaped] fields can never contain them raw. *)

let enc_sval = function
  | Abstract.I n -> "i" ^ string_of_int n
  | Abstract.S s -> "s" ^ String.escaped s

let dec_sval s =
  if s = "" then raise Exit
  else
    match (s.[0], String.sub s 1 (String.length s - 1)) with
    | 'i', n -> Abstract.I (int_of_string n)
    | 's', x -> Abstract.S (Scanf.unescaped x)
    | _ -> raise Exit

let enc_dval = function
  | Domain.Int n -> "i" ^ string_of_int n
  | Domain.Str s -> "s" ^ String.escaped s

let dec_dval s =
  if s = "" then raise Exit
  else
    match (s.[0], String.sub s 1 (String.length s - 1)) with
    | 'i', n -> Domain.Int (int_of_string n)
    | 's', x -> Domain.Str (Scanf.unescaped x)
    | _ -> raise Exit

let join1 = String.concat "\x01"
let split1 s = if s = "" then [] else String.split_on_char '\x01' s

let enc_model m =
  join1 (List.map (fun (v, x) -> String.escaped v ^ "\x02" ^ enc_dval x) m)

let dec_model s =
  List.map
    (fun item ->
      match String.index_opt item '\x02' with
      | None -> raise Exit
      | Some i ->
        ( Scanf.unescaped (String.sub item 0 i),
          dec_dval (String.sub item (i + 1) (String.length item - i - 1)) ))
    (split1 s)

let enc_wslot = function
  | Lit x -> "l" ^ enc_dval x
  | Cfg (j, d) -> Printf.sprintf "c%d:%d" j d

let dec_wslot s =
  if s = "" then raise Exit
  else
    match s.[0] with
    | 'l' -> Lit (dec_dval (String.sub s 1 (String.length s - 1)))
    | 'c' -> (
      match String.split_on_char ':' (String.sub s 1 (String.length s - 1)) with
      | [ j; d ] -> Cfg (int_of_string j, int_of_string d)
      | _ -> raise Exit)
    | _ -> raise Exit

let enc_template = function
  | Probe -> "P"
  | Broken -> "B"
  | Confirmed t ->
    "C\x01"
    ^ join1 (List.map (fun (v, w) -> String.escaped v ^ "\x02" ^ enc_wslot w) t)

let dec_template s =
  match split1 s with
  | [ "P" ] -> Probe
  | [ "B" ] -> Broken
  | "C" :: items ->
    Confirmed
      (List.map
         (fun item ->
           match String.index_opt item '\x02' with
           | None -> raise Exit
           | Some i ->
             ( Scanf.unescaped (String.sub item 0 i),
               dec_wslot (String.sub item (i + 1) (String.length item - i - 1)) ))
         items)
  | _ -> raise Exit

let enc_entry = function
  | Unsat_e -> "U"
  | Unknown_e u -> Printf.sprintf "K\t%d\t%s" u.attempts (String.escaped u.reason)
  | Sat_e se ->
    Printf.sprintf "S\t%s\t%s\t%s"
      (join1 (List.map enc_sval (Array.to_list se.vals)))
      (enc_model se.model) (enc_template se.template)

let dec_entry = function
  | [ "U" ] -> Unsat_e
  | [ "K"; attempts; reason ] ->
    Unknown_e { reason = Scanf.unescaped reason; attempts = int_of_string attempts }
  | [ "S"; vals; model; template ] ->
    Sat_e
      {
        vals = Array.of_list (List.map dec_sval (split1 vals));
        model = dec_model model;
        template = dec_template template;
      }
  | _ -> raise Exit

let enc_ins key e = "i\t" ^ String.escaped key ^ "\t" ^ enc_entry e
let enc_del key = "d\t" ^ String.escaped key

(* -- table mutation (mutex held) ------------------------------------------ *)

let table_put st key e =
  if not (Hashtbl.mem st.table key) then Queue.push key st.queue;
  Hashtbl.replace st.table key e

let apply_record st payload =
  match String.split_on_char '\t' payload with
  | "i" :: key :: rest -> table_put st (Scanf.unescaped key) (dec_entry rest)
  | [ "d"; key ] -> Hashtbl.remove st.table (Scanf.unescaped key)
  | _ -> raise Exit

(* A replayed deletion or a compaction removes a key without popping
   it, and a later re-insert queues the key again, so the stale element
   would evict the fresh entry at its old position. Keep each live key
   once, at its last (latest) insertion. Eviction pops the keys it
   removes, so the queue is exact again after this until the next
   replay or compaction. *)
let prune_queue st =
  let seen = Hashtbl.create (Hashtbl.length st.table) in
  let live =
    List.fold_left
      (fun acc key ->
        if Hashtbl.mem st.table key && not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          key :: acc
        end
        else acc)
      []
      (List.rev (List.of_seq (Queue.to_seq st.queue)))
  in
  Queue.clear st.queue;
  List.iter (fun key -> Queue.push key st.queue) live

(* The fence gate in front of every durable cache byte: an append made
   under a superseded ownership epoch is refused (and counted) before
   anything is framed, exactly as a home-journal append would be. *)
let fence_ok c ~fkey ~fepoch =
  match Fence.check ~key:fkey ~epoch:fepoch with
  | () -> true
  | exception Fence.Stale _ ->
    (match c with Some c -> c.stale_writes <- c.stale_writes + 1 | None -> ());
    false

(* Journal append that never fails the caller: the cache is advisory,
   so a fault-injected crash just drops the write (and, because memory
   applies only afterwards, leaves the table consistent). A mid-sequence
   crash may leave the record on a prefix of the replicas — scrub
   converges the set, and the merged reopen keeps the record. *)
let journal_append_raw st c payload =
  match st.journal with
  | None -> false
  | Some j -> (
    try
      Rjournal.append j payload;
      true
    with Fault.Crashed _ ->
      (match c with Some c -> c.journal_drops <- c.journal_drops + 1 | None -> ());
      false)

let journal_append st c ~fkey ~fepoch payload =
  fence_ok c ~fkey ~fepoch && journal_append_raw st c payload

let evict_overflow st c ~fkey ~fepoch =
  while Hashtbl.length st.table > st.max_entries && not (Queue.is_empty st.queue) do
    let key = Queue.pop st.queue in
    if Hashtbl.mem st.table key && not (Hashtbl.mem st.inflight key) then begin
      ignore (journal_append st c ~fkey ~fepoch (enc_del key));
      Hashtbl.remove st.table key;
      match c with Some c -> c.evicts <- c.evicts + 1 | None -> ()
    end
  done

let put_entry st c ~fkey ~fepoch key e =
  if journal_append st c ~fkey ~fepoch (enc_ins key e) then begin
    (match c with Some c -> c.inserts <- c.inserts + 1 | None -> ());
    table_put st key e;
    evict_overflow st c ~fkey ~fepoch
  end

(* -- snapshot / compaction ------------------------------------------------- *)

let sorted_keys st =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) st.table [])

(* Unknown markers expire here: the snapshot keeps decisive verdicts
   only, so their TTL is one compaction epoch. Compaction is a
   store-level maintenance pass made under the store's current epoch —
   the fence check is vacuous for the live store and exists to keep the
   every-durable-byte-is-fenced contract literal. *)
let compact_locked st =
  if fence_ok None ~fkey:st.fence_base ~fepoch:st.epoch then begin
    Hashtbl.iter
      (fun k e -> match e with Unknown_e _ -> Hashtbl.remove st.table k | _ -> ())
      (Hashtbl.copy st.table);
    prune_queue st;
    let payloads =
      List.map (fun k -> enc_ins k (Hashtbl.find st.table k)) (sorted_keys st)
    in
    Rjournal.write_atomic_all ~fsync:st.fsync ~epoch:st.epoch (snap_paths st) payloads;
    (match st.journal with Some j -> Rjournal.close j | None -> ());
    Rjournal.write_atomic_all ~fsync:st.fsync ~epoch:st.epoch (journal_paths st) [];
    st.journal <-
      Some (Rjournal.open_append ~fsync:st.fsync ~epoch:st.epoch (journal_paths st))
  end

let compact st =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) (fun () -> compact_locked st)

(* -- lifecycle ------------------------------------------------------------- *)

let open_store ?(fsync = true) ?(max_entries = 65536) ?(replicas = []) ?fence_key
    ~dir () =
  let dirs = dir :: replicas in
  List.iter Rjournal.mkdirs dirs;
  let st =
    {
      dir;
      dirs;
      fence_base = Option.value fence_key ~default:dir;
      epoch = 0;
      fsync;
      max_entries;
      mutex = Mutex.create ();
      table = Hashtbl.create 1024;
      queue = Queue.create ();
      inflight = Hashtbl.create 8;
      pair_table = Hashtbl.create 1024;
      pair_queue = Queue.create ();
      key_parts = Hashtbl.create 64;
      journal = None;
      handles = [];
      damage = 0;
    }
  in
  (* merged, read-repairing recovery over the replica set: every record
     that survived on at least one replica is replayed, every stale,
     damaged or missing replica is rewritten with the merged stream *)
  let undecodable = ref 0 in
  let replay name =
    let rec_ = Rjournal.recover ~fsync (List.map (fun d -> Filename.concat d name) dirs) in
    st.damage <-
      st.damage + rec_.Rjournal.quarantined
      + List.length
          (List.filter
             (fun (r : Rjournal.replica_report) -> r.Rjournal.torn_bytes > 0)
             rec_.Rjournal.replicas);
    List.iter
      (fun payload ->
        try apply_record st payload
        with _ ->
          incr undecodable;
          st.damage <- st.damage + 1)
      rec_.Rjournal.recovered;
    rec_.Rjournal.max_epoch
  in
  let snap_epoch = replay "cache.snapshot" in
  let jour_epoch = replay "cache.journal" in
  (* seed the fencing floor from the frames, as home recovery does:
     grants made on this store resume above anything ever written *)
  st.epoch <- max snap_epoch jour_epoch;
  ignore (Fence.acquire st.fence_base st.epoch);
  prune_queue st;
  evict_overflow st None ~fkey:st.fence_base ~fepoch:st.epoch;
  if !undecodable > 0 then
    (* a frame that decodes to no entry can never be served: drop it
       durably by folding the decoded table into a fresh snapshot *)
    compact_locked st
  else
    st.journal <-
      Some (Rjournal.open_append ~fsync ~epoch:st.epoch (journal_paths st));
  st

let close_store st =
  Mutex.lock st.mutex;
  (match st.journal with Some j -> Rjournal.close j | None -> ());
  st.journal <- None;
  Mutex.unlock st.mutex

(** Anti-entropy pass over the cache's replica set, frame-level like any
    other durable surface: the shared writer is parked, the replicas are
    converged (damage quarantined, lost frames patched back from the
    surviving copies), and the writer reopens at the same epoch. The
    in-memory table is not reloaded — scrub only restores records that
    were already appended, so replay on the next open subsumes it. *)
let scrub st =
  Mutex.lock st.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.mutex)
    (fun () ->
      (match st.journal with Some j -> Rjournal.close j | None -> ());
      st.journal <- None;
      let report = Scrub.scrub_home ~fsync:st.fsync ~files:cache_files st.dirs in
      st.journal <-
        Some (Rjournal.open_append ~fsync:st.fsync ~epoch:st.epoch (journal_paths st));
      report)

let entries st =
  Mutex.lock st.mutex;
  let n = Hashtbl.length st.table in
  Mutex.unlock st.mutex;
  n

let replay_damage st = st.damage

let dump st =
  Mutex.lock st.mutex;
  let out = List.map (fun k -> (k, enc_entry (Hashtbl.find st.table k))) (sorted_keys st) in
  Mutex.unlock st.mutex;
  out

let verdict_kind st key =
  Mutex.lock st.mutex;
  let k =
    match Hashtbl.find_opt st.table key with
    | Some (Sat_e _) -> Some "sat"
    | Some Unsat_e -> Some "unsat"
    | Some (Unknown_e _) -> Some "unknown"
    | None -> None
  in
  Mutex.unlock st.mutex;
  k

(* -- handles --------------------------------------------------------------- *)

(* Every attach is an ownership handover for that owner: a strictly
   larger epoch is granted under the owner's fence key, so the previous
   incarnation's handle (a wedged zombie shard, say) goes stale the
   moment its replacement attaches — its appends raise at the fence and
   never reach the disk. The shared writer reopens at the new epoch so
   later frames carry the grant. *)
let attach st ~owner =
  Mutex.lock st.mutex;
  st.epoch <- st.epoch + 1;
  ignore (Fence.acquire st.fence_base st.epoch);
  let fkey = owner_key st owner in
  let fepoch = Fence.acquire fkey st.epoch in
  (match st.journal with Some j -> Rjournal.close j | None -> ());
  st.journal <-
    Some (Rjournal.open_append ~fsync:st.fsync ~epoch:st.epoch (journal_paths st));
  let h =
    {
      h_owner = owner;
      h_key = fkey;
      h_epoch = fepoch;
      h_counters = zero_counters ();
      h_store = st;
    }
  in
  st.handles <- h :: st.handles;
  Mutex.unlock st.mutex;
  h

let owner h = h.h_owner
let counters h = h.h_counters
let store_of h = h.h_store
let handle_epoch h = h.h_epoch
let fence_key h = h.h_key
let store_epoch st = st.epoch
let replica_dirs st = st.dirs

(** One deliberately durable write under the handle's epoch — the chaos
    campaign's stale-writer probe. A fenced (zombie) handle must come
    back [`Fenced] with zero bytes written; [`Accepted] from a stale
    handle is the reintroduced split-brain bug the campaign invariants
    exist to catch. The reserved [~chaos/] key space never collides with
    abstraction keys and is asserted absent from every warm reopen. *)
let probe_write h =
  let st = h.h_store in
  Mutex.lock st.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.mutex)
    (fun () ->
      let key = "~chaos/probe/" ^ h.h_owner in
      if not (fence_ok (Some h.h_counters) ~fkey:h.h_key ~fepoch:h.h_epoch) then
        `Fenced
      else if journal_append_raw st (Some h.h_counters) (enc_ins key Unsat_e) then begin
        table_put st key Unsat_e;
        `Accepted
      end
      else `Dropped)

let total_counters st =
  let acc = zero_counters () in
  Mutex.lock st.mutex;
  List.iter (fun h -> add_counters acc h.h_counters) st.handles;
  Mutex.unlock st.mutex;
  acc

(* -- witness templates ----------------------------------------------------- *)

let slot_values (cls : Abstract.classified) =
  Array.map (fun (s : Abstract.slot) -> s.Abstract.s_value) cls.Abstract.slots

let rehydrate cur tmpl =
  try
    Some
      (List.map
         (fun (v, w) ->
           ( v,
             match w with
             | Lit x -> x
             | Cfg (j, d) ->
               if j < 0 || j >= Array.length cur then raise Exit
               else (
                 match cur.(j) with
                 | Abstract.I n -> Domain.Int (n + d)
                 | Abstract.S s -> if d = 0 then Domain.Str s else raise Exit) ))
         tmpl)
  with Exit -> None

(* Template consistent with two independent class members: a binding is
   a literal when both witnesses agree, otherwise an offset from the
   first slot explaining both. Anything else marks the class
   non-templatable — its verdicts still hit, its witnesses recompute. *)
let derive_template vals0 model0 vals1 model1 =
  let n = Array.length vals0 in
  if Array.length vals1 <> n || List.length model0 <> List.length model1 then Broken
  else
    try
      Confirmed
        (List.map2
           (fun (v0, x0) (v1, x1) ->
             if v0 <> v1 then raise Exit;
             if x0 = x1 then (v0, Lit x0)
             else
               let rec find j =
                 if j >= n then raise Exit
                 else
                   match (x0, x1, vals0.(j), vals1.(j)) with
                   | Domain.Int a0, Domain.Int a1, Abstract.I c0, Abstract.I c1
                     when a0 - c0 = a1 - c1 && abs (a0 - c0) <= Abstract.clamp_bound ->
                     (v0, Cfg (j, a0 - c0))
                   | Domain.Str s0, Domain.Str s1, Abstract.S t0, Abstract.S t1
                     when s0 = t0 && s1 = t1 ->
                     (v0, Cfg (j, 0))
                   | _ -> find (j + 1)
               in
               find 0)
           model0 model1)
    with Exit | Invalid_argument _ -> Broken

(* A rehydrated witness is served only if it provably satisfies the
   concrete formula: every binding in-domain, and the formula true
   under the model extended to a total assignment (extension preserves
   the satisfied conjunct, whose variables the model binds). *)
let validate qstore formula model =
  try
    List.for_all
      (fun (v, x) ->
        match Store.find_opt v qstore with
        | None -> true
        | Some d -> (
          match x with
          | Domain.Int n -> Domain.mem_int n d
          | Domain.Str s -> Domain.mem_str s d))
      model
    &&
    let inferred = Store.infer qstore formula in
    let tbl = Hashtbl.create 16 in
    List.iter (fun (v, x) -> Hashtbl.replace tbl v x) model;
    let env v =
      match Hashtbl.find_opt tbl v with
      | Some x -> x
      | None -> (
        match Store.find_opt v inferred with
        | Some d -> ( match Domain.choose d with Some x -> x | None -> raise Not_found)
        | None -> raise Not_found)
    in
    Formula.eval env formula
  with _ -> false

(* -- lookup ---------------------------------------------------------------- *)

let wait_inflight st c key =
  let merged = ref false in
  let rec go () =
    match Hashtbl.find_opt st.inflight key with
    | None -> ()
    | Some cond ->
      if not !merged then begin
        merged := true;
        c.single_flight_merges <- c.single_flight_merges + 1
      end;
      Condition.wait cond st.mutex;
      go ()
  in
  go ()

(* Run [compute] with [key] marked in-flight (mutex held on entry,
   released during the solve, released on return); [finish] applies the
   table/journal effects under the re-acquired lock. *)
let run_compute st key compute finish =
  let cond = Condition.create () in
  Hashtbl.replace st.inflight key cond;
  Mutex.unlock st.mutex;
  let result =
    try Ok (compute ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock st.mutex;
  Hashtbl.remove st.inflight key;
  Condition.broadcast cond;
  (match result with
  | Ok v -> (
    try finish v
    with e ->
      Mutex.unlock st.mutex;
      raise e)
  | Error _ -> ());
  Mutex.unlock st.mutex;
  match result with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let entry_of_verdict cur ~unknown_attempts = function
  | Budget.Sat m -> Sat_e { vals = cur; model = m; template = Probe }
  | Budget.Unsat -> Unsat_e
  | Budget.Unknown r ->
    Unknown_e { reason = Budget.reason_to_string r; attempts = unknown_attempts }

let verdict_agrees entry v =
  match (entry, v) with
  | Sat_e _, Budget.Sat _ | Unsat_e, Budget.Unsat -> true
  | _, Budget.Unknown _ -> true (* a tripped budget contradicts nothing *)
  | _ -> false

let lookup_or_compute h (cls : Abstract.classified) ~qstore ~formula compute =
  let st = h.h_store and c = h.h_counters in
  let put_entry st c key e = put_entry st c ~fkey:h.h_key ~fepoch:h.h_epoch key e in
  let key = cls.Abstract.key in
  let cur = slot_values cls in
  Mutex.lock st.mutex;
  wait_inflight st c key;
  let serve_hit v =
    c.hits <- c.hits + 1;
    Mutex.unlock st.mutex;
    v
  in
  let compute_recording ?(unknown_attempts = 1) ?prev () =
    c.misses <- c.misses + 1;
    run_compute st key compute (fun v ->
        (match prev with
        | Some e when not (verdict_agrees e v) ->
          (* a decisive cached verdict contradicted by a fresh solve:
             the abstraction failed — surface loudly, trust the solve *)
          c.conflicts <- c.conflicts + 1
        | _ -> ());
        match v with
        | Budget.Unknown _ when (match prev with Some (Sat_e _ | Unsat_e) -> true | _ -> false)
          ->
          (* never downgrade a decisive entry to a stale marker *)
          ()
        | v -> put_entry st (Some c) key (entry_of_verdict cur ~unknown_attempts v))
  in
  match Hashtbl.find_opt st.table key with
  | Some Unsat_e -> serve_hit Budget.Unsat
  | Some (Sat_e se) when se.vals = cur -> serve_hit (Budget.Sat se.model)
  | Some (Sat_e se) -> (
    match se.template with
    | Confirmed tmpl -> (
      match rehydrate cur tmpl with
      | Some model when validate qstore formula model -> serve_hit (Budget.Sat model)
      | _ ->
        c.rehydrate_fallbacks <- c.rehydrate_fallbacks + 1;
        c.misses <- c.misses + 1;
        run_compute st key compute (fun v ->
            if verdict_agrees (Sat_e se) v then se.template <- Broken
            else begin
              c.conflicts <- c.conflicts + 1;
              put_entry st (Some c) key (entry_of_verdict cur ~unknown_attempts:1 v)
            end))
    | Probe ->
      (* second class member: compute concretely and use the pair of
         witnesses to confirm (or refute) a rehydration template *)
      c.misses <- c.misses + 1;
      run_compute st key compute (fun v ->
          match v with
          | Budget.Sat m ->
            se.template <- derive_template se.vals se.model cur m;
            put_entry st (Some c) key (Sat_e se)
          | Budget.Unknown _ -> ()
          | Budget.Unsat ->
            c.conflicts <- c.conflicts + 1;
            put_entry st (Some c) key Unsat_e)
    | Broken ->
      c.rehydrate_fallbacks <- c.rehydrate_fallbacks + 1;
      compute_recording ~prev:(Sat_e se) ())
  | Some (Unknown_e u) ->
    c.stale_unknowns <- c.stale_unknowns + 1;
    compute_recording ~unknown_attempts:(u.attempts + 1) ~prev:(Unknown_e u) ()
  | None -> compute_recording ()

(* -- pair tier (L1) --------------------------------------------------------- *)

let render_bindings bs =
  String.concat ";"
    (List.map
       (fun (v, t) -> v ^ "=" ^ Term.to_string t)
       (List.sort (fun (x, _) (y, _) -> compare x y) bs))

(* An app's L1 key part, memoized per store and app name. Physical
   identity of the app and of its bindings list is the fast check: one
   audit reads each app's bindings once, so every pair key of the audit
   after the first reuses the rendered part. When it fails — a
   recovered fleet parses its own copy of every app per home, and
   homes bind different values — the entry is revalidated structurally:
   a structurally equal app renders the same JSON, so its digest is
   kept and only the bindings are re-rendered if they differ. Only an
   app whose rule structure changed (an updated catalog entry under a
   reused name) pays the JSON render and MD5 again, which changes every
   key it appears in. The entry then holds the latest values, so the
   rest of the audit hits physically. *)
let app_key_part st (app : Rule.smartapp) bindings =
  let cached = Hashtbl.find_opt st.key_parts app.Rule.name in
  match cached with
  | Some kp when kp.kp_app == app && kp.kp_bindings == bindings -> kp.kp_text
  | _ ->
    let digest =
      match cached with
      | Some kp when kp.kp_app == app || compare kp.kp_app app = 0 -> kp.kp_digest
      | _ -> Digest.to_hex (Digest.string (Rule_json.to_string app))
    in
    let text =
      match cached with
      | Some kp when kp.kp_digest = digest && kp.kp_bindings = bindings -> kp.kp_text
      | _ -> app.Rule.name ^ ":" ^ digest ^ "\n" ^ render_bindings bindings
    in
    Hashtbl.replace st.key_parts app.Rule.name
      { kp_app = app; kp_digest = digest; kp_bindings = bindings; kp_text = text };
    text

(* L1 keys are exact (no cell abstraction): the pair in install order —
   detection is orientation-sensitive — with each app's rule digest,
   its concrete configuration bindings and the same-device relation.
   Exactness is what lets hits return stored threats verbatim, witness
   bytes included. A key is one join of the two apps' memoized parts,
   the fingerprint and the rendered relation. *)
let pair_key st (pa : Detector.pair_audit) =
  let a, b = pa.Detector.pa_apps in
  let ba, bb = pa.Detector.pa_bindings in
  let unify =
    String.concat ";" (List.map (fun (v1, v2) -> v1 ^ "~" ^ v2) pa.Detector.pa_unify)
  in
  String.concat "\n"
    [ "vcp1"; pa.Detector.pa_fingerprint; app_key_part st a ba; app_key_part st b bb; unify ]

let pair_lookup h pa =
  let st = h.h_store in
  Mutex.lock st.mutex;
  let r =
    let key = pair_key st pa in
    Hashtbl.find_opt st.pair_table key
  in
  (match r with
  | Some _ -> h.h_counters.pair_hits <- h.h_counters.pair_hits + 1
  | None -> h.h_counters.pair_misses <- h.h_counters.pair_misses + 1);
  Mutex.unlock st.mutex;
  r

let pair_store h pa m =
  let st = h.h_store in
  Mutex.lock st.mutex;
  let key = pair_key st pa in
  if not (Hashtbl.mem st.pair_table key) then begin
    Hashtbl.replace st.pair_table key m;
    Queue.push key st.pair_queue;
    h.h_counters.pair_inserts <- h.h_counters.pair_inserts + 1;
    while Hashtbl.length st.pair_table > st.max_entries do
      let oldest = Queue.pop st.pair_queue in
      Hashtbl.remove st.pair_table oldest
    done
  end;
  Mutex.unlock st.mutex

let pair_entries st =
  Mutex.lock st.mutex;
  let n = Hashtbl.length st.pair_table in
  Mutex.unlock st.mutex;
  n

(* -- detector hook --------------------------------------------------------- *)

let hook h (q : Detector.solve_query) compute =
  let cls =
    Abstract.classify ~kind:q.Detector.q_kind ~apps:q.Detector.q_apps
      ~fingerprint:q.Detector.q_fingerprint ~bindings:q.Detector.q_bindings
      ~store:q.Detector.q_store ~formula:q.Detector.q_formula
  in
  lookup_or_compute h cls ~qstore:q.Detector.q_store ~formula:q.Detector.q_formula compute

let configure h (c : Detector.config) =
  {
    c with
    Detector.shared_cache = Some (hook h);
    Detector.pair_cache =
      Some { Detector.pair_lookup = pair_lookup h; Detector.pair_store = pair_store h };
  }
