(** Replicated journal: R copies of one append-only journal under
    distinct replica roots, written in order, recovered by merging.

    Appends go to every replica in sequence through the normal
    {!Journal} framing (CRC, epoch stamp, storage-fault hooks with
    replica-distinct keys, per-replica fsync points), after a single
    {!Fence.check} — the epoch fence gates the logical append, not each
    copy. A crash between replica writes leaves one replica a record
    ahead of the others; recovery absorbs that the same way it absorbs
    damage.

    Recovery scans every replica and {e merges}: because all replicas
    receive the same append sequence, each replica's valid records form
    a subsequence of the true history, so the shortest common
    supersequence (computed pairwise via LCS and folded over the
    replicas) restores every record that survived on at least one
    replica — the "no acked record lost while one replica survives"
    guarantee. Damage on each replica is quarantined into that
    replica's own sidecar, and every replica is atomically rewritten
    with the merged records (read-repair), re-stamped at the highest
    epoch seen so the fencing floor survives. *)

module Fault = Homeguard_solver.Fault

(* -- merged record streams ----------------------------------------------------- *)

(* Shortest common supersequence of two lists, via the LCS backtrack:
   both are subsequences of one true history, so their SCS is the
   minimal stream containing every record either replica kept, in a
   consistent order.

   The backtrack emits equal heads first, and the table over two
   suffixes depends only on those suffixes, so the common prefix is
   emitted without a table and the table spans only the diverged
   remainder. Identical replicas, or one that is only some frames
   ahead, merge in one linear pass that returns the longer list
   itself. *)
let scs (a : string list) (b : string list) =
  let rec common p x y =
    match (x, y) with
    | [], _ -> b
    | _, [] -> a
    | u :: x', v :: y' when String.equal u v -> common (p + 1) x' y'
    | _ -> diverged p x y
  and diverged p x y =
    let xa = Array.of_list x and xb = Array.of_list y in
    let n = Array.length xa and m = Array.length xb in
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if String.equal xa.(i) xb.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let out = ref (List.rev (List.filteri (fun k _ -> k < p) a)) in
    let i = ref 0 and j = ref 0 in
    while !i < n && !j < m do
      if String.equal xa.(!i) xb.(!j) then begin
        out := xa.(!i) :: !out;
        incr i;
        incr j
      end
      else if lcs.(!i + 1).(!j) >= lcs.(!i).(!j + 1) then begin
        out := xa.(!i) :: !out;
        incr i
      end
      else begin
        out := xb.(!j) :: !out;
        incr j
      end
    done;
    while !i < n do
      out := xa.(!i) :: !out;
      incr i
    done;
    while !j < m do
      out := xb.(!j) :: !out;
      incr j
    done;
    List.rev !out
  in
  common 0 a b

let merge_records = function
  | [] -> []
  | first :: rest -> List.fold_left scs first rest

(* -- appending ----------------------------------------------------------------- *)

type t = {
  writers : Journal.t list;  (** one per replica, in replica order *)
  fence_key : string option;
  epoch : int;
}

(* Replica-distinct storage-fault keys: the last three path components
   ("r1/h_kitchen/journal") when the replica layout provides them, so a
   deterministic fault plan never tears the same logical append on
   every replica at once. A single-replica journal keeps the bare
   basename, preserving the established fault-matrix keys. *)
let fault_key_of path =
  let base = Filename.basename path in
  let p1 = Filename.dirname path in
  let p2 = Filename.dirname p1 in
  Printf.sprintf "%s/%s/%s" (Filename.basename p2) (Filename.basename p1) base

let open_append ?(fsync = true) ?(epoch = 0) ?fence_key paths =
  match paths with
  | [] -> invalid_arg "Rjournal.open_append: no replica paths"
  | [ path ] ->
    {
      writers = [ Journal.open_append ~fsync ~epoch path ];
      fence_key;
      epoch;
    }
  | paths ->
    {
      writers =
        List.map
          (fun path ->
            Journal.open_append ~fsync ~epoch ~fault_key:(fault_key_of path) path)
          paths;
      fence_key;
      epoch;
    }

let epoch t = t.epoch

let append t payload =
  (match t.fence_key with
  | Some key -> Fence.check ~key ~epoch:t.epoch
  | None -> ());
  List.iter (fun j -> Journal.append j payload) t.writers

let sync t = List.iter Journal.sync t.writers
let close t = List.iter Journal.close t.writers

let rec mkdirs dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Atomically replace every replica with a journal holding exactly
    [payloads], creating missing replica directories. *)
let write_atomic_all ?(fsync = true) ?(epoch = 0) paths payloads =
  List.iter
    (fun path ->
      mkdirs (Filename.dirname path);
      Journal.write_atomic ~fsync ~epoch path payloads)
    paths

(* -- recovery ------------------------------------------------------------------ *)

type replica_report = {
  path : string;
  present : bool;  (** the file existed before recovery *)
  records : int;  (** valid records this replica held *)
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
  repaired : bool;  (** rewritten to the merged records *)
}

type recovery = {
  recovered : string list;  (** the merged record stream *)
  replicas : replica_report list;
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
      (** most conservative (lowest) first-damage index across replicas *)
  max_epoch : int;
  diverged : bool;  (** replicas disagreed before repair *)
  healed : int;
      (** records restored to at least one replica that had lost them *)
  all_replicas_damaged : bool;
      (** every replica surfaced damage: merged recovery may still have
          lost acknowledged records (the honest-loss case) *)
}

let damage_bytes = function
  | Journal.Torn_tail { raw; _ } | Journal.Corrupt { raw; _ } -> String.length raw

(** Scan all replicas of one journal, merge the surviving records,
    quarantine damage into each replica's own sidecar and rewrite every
    stale/damaged/missing replica with the merged stream. *)
let recover ?(fsync = true) paths =
  if paths = [] then invalid_arg "Rjournal.recover: no replica paths";
  let scans = List.map (fun p -> (p, Sys.file_exists p, Journal.scan p)) paths in
  let merged = merge_records (List.map (fun (_, _, sc) -> sc.Journal.records) scans) in
  let max_epoch =
    List.fold_left (fun a (_, _, (sc : Journal.scan)) -> max a sc.Journal.max_epoch) 0 scans
  in
  let replicas =
    List.map
      (fun (path, present, sc) ->
        let torn, corrupt =
          List.partition
            (function Journal.Torn_tail _ -> true | Journal.Corrupt _ -> false)
            sc.Journal.damage
        in
        let needs_rewrite =
          (* an absent file with nothing to hold is a fresh open, not a
             lost replica — creating it would make every first open look
             like a repair *)
          if present then sc.Journal.damage <> [] || sc.Journal.records <> merged
          else merged <> []
        in
        if sc.Journal.damage <> [] then
          Journal.quarantine_damage path sc.Journal.damage;
        if needs_rewrite then begin
          mkdirs (Filename.dirname path);
          Journal.write_atomic ~fsync ~epoch:max_epoch path merged
        end;
        {
          path;
          present;
          records = List.length sc.Journal.records;
          torn_bytes = List.fold_left (fun a d -> a + damage_bytes d) 0 torn;
          quarantined = List.length corrupt;
          damage_index = sc.Journal.first_damage_index;
          repaired = needs_rewrite;
        })
      scans
  in
  let hurt (r : replica_report) = r.torn_bytes > 0 || r.quarantined > 0 in
  let merged_len = List.length merged in
  {
    recovered = merged;
    replicas;
    torn_bytes = List.fold_left (fun a (r : replica_report) -> a + r.torn_bytes) 0 replicas;
    quarantined = List.fold_left (fun a (r : replica_report) -> a + r.quarantined) 0 replicas;
    damage_index =
      List.fold_left
        (fun acc (r : replica_report) ->
          match (acc, r.damage_index) with
          | None, d | d, None -> d
          | Some a, Some b -> Some (min a b))
        None replicas;
    max_epoch;
    diverged =
      List.exists
        (fun (_, _, sc) -> sc.Journal.records <> merged)
        scans;
    healed =
      List.fold_left (fun a r -> a + (merged_len - r.records)) 0 replicas;
    all_replicas_damaged =
      (* a missing replica contributed nothing to the merge, so damage
         everywhere-else plus a destroyed copy is still honest loss; a
         merely-missing set with no damage anywhere is a fresh open *)
      List.exists hurt replicas
      && List.for_all (fun (r : replica_report) -> hurt r || not r.present) replicas;
  }
