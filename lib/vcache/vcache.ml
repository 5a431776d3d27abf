(** Fleet-shared persistent verdict cache: journaled store, witness
    templates, single-flight — see the .mli contract and DESIGN.md §14. *)

module Detector = Homeguard_detector.Detector
module Solver = Homeguard_solver.Solver
module Budget = Homeguard_solver.Budget
module Formula = Homeguard_solver.Formula
module Store = Homeguard_solver.Store
module Domain = Homeguard_solver.Domain
module Journal = Homeguard_store.Journal
module Rjournal = Homeguard_store.Rjournal
module Fence = Homeguard_store.Fence
module Surface = Homeguard_store.Surface

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
  into.stale_writes <- into.stale_writes + from.stale_writes

let counters_text c =
  Printf.sprintf
    "hits=%d misses=%d inserts=%d evicts=%d single-flight=%d fallbacks=%d \
     conflicts=%d stale-unknowns=%d journal-drops=%d stale-writes=%d"
    c.hits c.misses c.inserts c.evicts c.single_flight_merges c.rehydrate_fallbacks
    c.conflicts c.stale_unknowns c.journal_drops c.stale_writes

type store = {
  surface : Surface.t;
      (** the cache's files on every replica root; its writer stamps the
          latest ownership epoch granted on this store *)
  fence_base : string;  (** fence-key namespace: the primary directory *)
  max_entries : int;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  queue : string Queue.t;
      (** insertion order, for oldest-first eviction: each live key once,
          at its latest insertion (see [prune_queue]) *)
  inflight : (string, Condition.t) Hashtbl.t;
  mutable handles : handle list;
  mutable damage : int;  (** damaged/undecodable frames dropped on opens *)
}

and handle = {
  h_owner : string;
  h_key : string;  (** per-owner fence key: one zombie never fences its peers *)
  h_epoch : int;  (** the ownership epoch this incarnation writes under *)
  h_counters : counters;
  h_store : store;
}

(* Fence keys are per owner (shard slot), not per store: granting shard
   s2's replacement a fresh epoch must fence the wedged s2 zombie while
   leaving every other live shard's handle valid. *)
let owner_key st owner = st.fence_base ^ "#" ^ owner

(* -- serialization --------------------------------------------------------- *)

(* One payload per journal frame: tab-separated escaped fields; nested
   lists join with '\x01', nested pairs with '\x02' — both control
   characters, so [String.escaped] fields can never contain them raw.

   Decoding is the strict inverse of the encoding: fields are read in
   place by index, and a payload is accepted only in the exact form the
   encoder writes, so for every accepted payload [p] re-encoding the
   decoded record gives back [p]. Anything else raises [Exit], which
   replay counts as damage. *)

(* The next [c] in [s] from [i], or [stop]. *)
let rec next c s i stop =
  if i >= stop || String.unsafe_get s i = c then i else next c s (i + 1) stop

(* Bytes [String.escaped] leaves as they are. *)
let plain c = c >= ' ' && c <= '~' && c <> '"' && c <> '\\'

(* The strict inverse of [String.escaped] on [s.[pos..stop-1]]: runs of
   plain bytes are copied, and only the escapes [String.escaped] emits
   are decoded — [\\ \" \n \t \b \r], and [\ddd] for a byte that is
   neither plain nor named. Anything else raises [Exit]: a raw ['"'], a
   raw control or high byte, [\'], [\x41], [\065]. *)
let unescape_sub s pos stop =
  let b = Bytes.create (stop - pos) in
  let digit i =
    match s.[i] with '0' .. '9' as c -> Char.code c - 48 | _ -> raise Exit
  in
  let rec run i o =
    let j = ref i in
    while !j < stop && plain (String.unsafe_get s !j) do incr j done;
    let len = !j - i in
    Bytes.blit_string s i b o len;
    if !j = stop then o + len else escape !j (o + len)
  and escape i o =
    if String.unsafe_get s i <> '\\' || i + 1 = stop then raise Exit;
    let put c k =
      Bytes.unsafe_set b o c;
      run (i + k) (o + 1)
    in
    match s.[i + 1] with
    | ('\\' | '"') as c -> put c 2
    | 'n' -> put '\n' 2
    | 't' -> put '\t' 2
    | 'b' -> put '\b' 2
    | 'r' -> put '\r' 2
    | '0' .. '9' ->
      if i + 4 > stop then raise Exit;
      let n = (100 * digit (i + 1)) + (10 * digit (i + 2)) + digit (i + 3) in
      if n > 255 then raise Exit;
      let c = Char.chr n in
      if (c >= ' ' && c <= '~') || c = '\n' || c = '\t' || c = '\b' || c = '\r' then
        raise Exit;
      put c 4
    | _ -> raise Exit
  in
  let len = run pos 0 in
  if len = stop - pos then Bytes.unsafe_to_string b else Bytes.sub_string b 0 len

let unescape s = unescape_sub s 0 (String.length s)

(* An int in exactly [string_of_int]'s form: no sign but a leading '-',
   no leading zero, no "-0", no overflow. *)
let dec_int s pos stop =
  let neg = pos < stop && s.[pos] = '-' in
  let p = if neg then pos + 1 else pos in
  if p >= stop || (s.[p] = '0' && (neg || stop - p > 1)) then raise Exit;
  (* accumulate negatively, so min_int parses *)
  let acc = ref 0 in
  for i = p to stop - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      let d = Char.code c - 48 in
      if !acc < (min_int + d) / 10 then raise Exit;
      acc := (!acc * 10) - d
    | _ -> raise Exit
  done;
  if neg then !acc else if !acc = min_int then raise Exit else - !acc

(* [dec] over every '\x01'-separated item of [s.[pos..stop-1]]; the
   empty range is the empty list. *)
let dec_list dec s pos stop =
  if pos = stop then []
  else
    let rec go i =
      let j = next '\x01' s i stop in
      let x = dec s i j in
      if j = stop then [ x ] else x :: go (j + 1)
    in
    go pos

(* An escaped name, '\x02', then [dec] of the rest. *)
let dec_named dec s pos stop =
  let k = next '\x02' s pos stop in
  if k = stop then raise Exit;
  let name = unescape_sub s pos k in
  (name, dec s (k + 1) stop)

let enc_sval = function
  | Abstract.I n -> "i" ^ string_of_int n
  | Abstract.S s -> "s" ^ String.escaped s

let dec_sval s pos stop =
  if pos = stop then raise Exit
  else
    match s.[pos] with
    | 'i' -> Abstract.I (dec_int s (pos + 1) stop)
    | 's' -> Abstract.S (unescape_sub s (pos + 1) stop)
    | _ -> raise Exit

let enc_dval = function
  | Domain.Int n -> "i" ^ string_of_int n
  | Domain.Str s -> "s" ^ String.escaped s

let dec_dval s pos stop =
  if pos = stop then raise Exit
  else
    match s.[pos] with
    | 'i' -> Domain.Int (dec_int s (pos + 1) stop)
    | 's' -> Domain.Str (unescape_sub s (pos + 1) stop)
    | _ -> raise Exit

let join1 = String.concat "\x01"

let enc_model m =
  join1 (List.map (fun (v, x) -> String.escaped v ^ "\x02" ^ enc_dval x) m)

let dec_model = dec_list (dec_named dec_dval)

let enc_wslot = function
  | Lit x -> "l" ^ enc_dval x
  | Cfg (j, d) -> Printf.sprintf "c%d:%d" j d

let dec_wslot s pos stop =
  if pos = stop then raise Exit
  else
    match s.[pos] with
    | 'l' -> Lit (dec_dval s (pos + 1) stop)
    | 'c' ->
      let k = next ':' s (pos + 1) stop in
      if k = stop then raise Exit;
      Cfg (dec_int s (pos + 1) k, dec_int s (k + 1) stop)
    | _ -> raise Exit

let enc_template = function
  | Probe -> "P"
  | Broken -> "B"
  | Confirmed t ->
    "C\x01"
    ^ join1 (List.map (fun (v, w) -> String.escaped v ^ "\x02" ^ enc_wslot w) t)

let dec_template s pos stop =
  match stop - pos with
  | 1 when s.[pos] = 'P' -> Probe
  | 1 when s.[pos] = 'B' -> Broken
  | n when n >= 2 && s.[pos] = 'C' && s.[pos + 1] = '\x01' ->
    Confirmed (dec_list (dec_named dec_wslot) s (pos + 2) stop)
  | _ -> raise Exit

let enc_entry = function
  | Unsat_e -> "U"
  | Unknown_e u -> Printf.sprintf "K\t%d\t%s" u.attempts (String.escaped u.reason)
  | Sat_e se ->
    Printf.sprintf "S\t%s\t%s\t%s"
      (join1 (List.map enc_sval (Array.to_list se.vals)))
      (enc_model se.model) (enc_template se.template)

(* The fields of [s.[pos..stop-1]] split at tabs, as (start, stop)
   pairs. *)
let tab_fields s pos stop =
  let rec go i =
    let j = next '\t' s i stop in
    if j = stop then [ (i, j) ] else (i, j) :: go (j + 1)
  in
  go pos

let dec_entry s pos stop =
  match tab_fields s pos stop with
  | [ (a, b) ] when b - a = 1 && s.[a] = 'U' -> Unsat_e
  | [ (a, b); (n0, n1); (r0, r1) ] when b - a = 1 && s.[a] = 'K' ->
    let attempts = dec_int s n0 n1 in
    Unknown_e { reason = unescape_sub s r0 r1; attempts }
  | [ (a, b); (v0, v1); (m0, m1); (t0, t1) ] when b - a = 1 && s.[a] = 'S' ->
    let vals = Array.of_list (dec_list dec_sval s v0 v1) in
    let model = dec_model s m0 m1 in
    Sat_e { vals; model; template = dec_template s t0 t1 }
  | _ -> raise Exit

let enc_ins key e = "i\t" ^ String.escaped key ^ "\t" ^ enc_entry e
let enc_del key = "d\t" ^ String.escaped key

(* -- table mutation (mutex held) ------------------------------------------ *)

let table_put st key e =
  if not (Hashtbl.mem st.table key) then Queue.push key st.queue;
  Hashtbl.replace st.table key e

type record = Ins of string * entry | Del of string

(* One journal payload: ["i\t<key>\t<entry>"] or ["d\t<key>"]. *)
let decode_record p =
  let n = String.length p in
  if n < 2 || p.[1] <> '\t' then raise Exit;
  match p.[0] with
  | 'i' ->
    let k = next '\t' p 2 n in
    if k = n then raise Exit;
    let key = unescape_sub p 2 k in
    Ins (key, dec_entry p (k + 1) n)
  | 'd' ->
    if next '\t' p 2 n <> n then raise Exit;
    Del (unescape_sub p 2 n)
  | _ -> raise Exit

let reencode_record p =
  match decode_record p with Ins (key, e) -> enc_ins key e | Del key -> enc_del key

let apply_record st payload =
  match decode_record payload with
  | Ins (key, e) -> table_put st key e
  | Del key -> Hashtbl.remove st.table key

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
  Surface.is_open st.surface
  &&
  try
    Surface.append st.surface payload;
    true
  with Journal.Crashed _ ->
    (match c with Some c -> c.journal_drops <- c.journal_drops + 1 | None -> ());
    false

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
  if fence_ok None ~fkey:st.fence_base ~fepoch:(Surface.epoch st.surface) then begin
    Hashtbl.iter
      (fun k e -> match e with Unknown_e _ -> Hashtbl.remove st.table k | _ -> ())
      (Hashtbl.copy st.table);
    prune_queue st;
    let payloads =
      List.map (fun k -> enc_ins k (Hashtbl.find st.table k)) (sorted_keys st)
    in
    Surface.compact st.surface payloads
  end

let compact st =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) (fun () -> compact_locked st)

(* -- lifecycle ------------------------------------------------------------- *)

let open_store ?(fsync = true) ?(max_entries = 65536) ?(replicas = []) ~dir () =
  let surface = Surface.at ~fsync Surface.Cache (dir :: replicas) in
  let st =
    {
      surface;
      fence_base = dir;
      max_entries;
      mutex = Mutex.create ();
      table = Hashtbl.create 1024;
      queue = Queue.create ();
      inflight = Hashtbl.create 8;
      handles = [];
      damage = 0;
    }
  in
  (* merged, read-repairing recovery over the replica set: every record
     that survived on at least one replica is replayed, every stale,
     damaged or missing replica is rewritten with the merged stream *)
  let { Surface.snapshot; journal; floor } = Surface.recover surface in
  let undecodable = ref 0 in
  let replay (r : Rjournal.recovery) =
    st.damage <-
      st.damage + r.Rjournal.quarantined
      + List.length
          (List.filter
             (fun (r : Rjournal.replica_report) -> r.Rjournal.torn_bytes > 0)
             r.Rjournal.replicas);
    List.iter
      (fun payload ->
        try apply_record st payload
        with Exit ->
          incr undecodable;
          st.damage <- st.damage + 1)
      r.Rjournal.recovered
  in
  replay snapshot;
  replay journal;
  (* seed the fencing floor from the frames, as home recovery does:
     grants made on this store resume above anything ever written *)
  ignore (Fence.acquire st.fence_base floor);
  prune_queue st;
  (* the writer is still parked, so overflow evicted here is not
     journaled *)
  evict_overflow st None ~fkey:st.fence_base ~fepoch:floor;
  Surface.open_writer surface ~epoch:floor;
  if !undecodable > 0 then
    (* a frame that decodes to no entry can never be served: drop it
       durably by folding the decoded table into a fresh snapshot *)
    compact_locked st;
  st

let close_store st =
  Mutex.lock st.mutex;
  Surface.close st.surface;
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
    (fun () -> Surface.scrub st.surface)

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
  let epoch = Surface.epoch st.surface + 1 in
  ignore (Fence.acquire st.fence_base epoch);
  let fkey = owner_key st owner in
  let fepoch = Fence.acquire fkey epoch in
  Surface.open_writer st.surface ~epoch;
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

let counters h = h.h_counters
let handle_epoch h = h.h_epoch
let fence_key h = h.h_key

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

(* -- detector hook --------------------------------------------------------- *)

let hook h (q : Detector.solve_query) compute =
  let cls =
    Abstract.classify ~kind:q.Detector.q_kind ~apps:q.Detector.q_apps
      ~fingerprint:q.Detector.q_fingerprint ~bindings:q.Detector.q_bindings
      ~store:q.Detector.q_store ~formula:q.Detector.q_formula
  in
  lookup_or_compute h cls ~qstore:q.Detector.q_store ~formula:q.Detector.q_formula compute

let configure h (c : Detector.config) = { c with Detector.shared_cache = Some (hook h) }
