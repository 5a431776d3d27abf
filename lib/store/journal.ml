(** Append-only write-ahead journal with CRC-framed records.

    Every record is framed in one of two self-describing forms:

    {v HGJ1 <len:8 hex> <crc32:8 hex>\n<payload bytes>\n v}
    {v HGJ2 <len:8 hex> <crc32:8 hex> <epoch:8 hex>\n<payload bytes>\n v}

    so the file is length-delimited (payloads may contain anything),
    self-checking (CRC-32 over the payload) and resynchronizable (a
    damaged header is skipped by scanning for the next ["\nHGJ1 "] or
    ["\nHGJ2 "]). The [HGJ2] form additionally stamps each frame with
    the writer's {e ownership epoch} — the fencing token a supervisor
    hands the current owner of the journal. Epochs along a well-formed
    journal are non-decreasing; {!scan} counts regressions (a frame
    stamped below the running maximum), which is the durable trace of a
    stale writer whose append was wrongly accepted.

    Durability contract: [append] returns only after the frame has been
    written, flushed and (unless the journal was opened with
    [~fsync:false]) fsynced — the fsync point. Recovery
    ({!Surface.recover}) truncates a torn tail (an incomplete final
    frame: the classic crash-mid-write), moves CRC-invalid but fully
    framed records to a [.quarantine] sidecar ({!quarantine_damage}),
    and rewrites the journal atomically ({!write_atomic}: temp file +
    rename + parent-directory fsync) with only the surviving records.

    All writes pass through {!on_write} and bracket {!crash_point}s, so
    the deterministic storage-fault matrix can crash, tear or bit-flip
    any individual append. *)

let magic = "HGJ1 "
let magic2 = "HGJ2 "
let header_len = 23 (* "HGJ1 " + 8 hex + ' ' + 8 hex + '\n' *)
let header_len2 = 32 (* "HGJ2 " + 8 hex + ' ' + 8 hex + ' ' + 8 hex + '\n' *)

let frame payload =
  Printf.sprintf "%s%08x %08x\n%s\n" magic (String.length payload) (Crc32.string payload)
    payload

(** Epoch-stamped frame; epoch 0 renders in the legacy [HGJ1] form so
    unfenced writers stay byte-compatible with pre-epoch journals. *)
let frame_epoch ~epoch payload =
  if epoch = 0 then frame payload
  else
    Printf.sprintf "%s%08x %08x %08x\n%s\n" magic2 (String.length payload)
      (Crc32.string payload) epoch payload

(* -- raw-descriptor I/O -------------------------------------------------------- *)

(* The store reads and writes through Unix descriptors, never OCaml
   channels: a channel carries a 64 KB inline buffer that is charged in
   full to the major GC, so the thousands of opens of a fleet restart
   would cost hundreds of needless major collections. *)

let write_sub fd s pos len = ignore (Unix.write_substring fd s pos len)
let write_string fd s = write_sub fd s 0 (String.length s)

let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()
let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
let with_descr fd f = Fun.protect ~finally:(fun () -> close_noerr fd) (fun () -> f fd)

let read_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ""
  | fd ->
    with_descr fd (fun fd ->
        let len = (Unix.fstat fd).Unix.st_size in
        let b = Bytes.create len in
        let rec go off =
          if off = len then off
          else match Unix.read fd b off (len - off) with 0 -> off | n -> go (off + n)
        in
        let got = go 0 in
        if got = len then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got)

let append_flags = [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]

let rec mkdirs dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- storage faults ---------------------------------------------------------- *)

(* Test-only, disarmed by default. Whether a key fires is a hash of the
   armed seed and the key, so a plan is independent of call order. *)

exception Crashed of string

type storage_mode = Crash | Torn | Flip

type storage_plan = {
  seed : int;
  rate : int;  (** per thousand keys *)
  only : string option;  (** fire only on keys with this prefix *)
  mode : storage_mode;
}

let storage_state : storage_plan option Atomic.t = Atomic.make None

let arm_storage ?(seed = 1) ?(rate_per_thousand = 1000) ?only mode =
  Atomic.set storage_state (Some { seed; rate = rate_per_thousand; only; mode })

let disarm_storage () = Atomic.set storage_state None
let storage_armed () = Atomic.get storage_state <> None

let storage_selects plan key =
  (match plan.only with None -> true | Some prefix -> String.starts_with ~prefix key)
  && Hashtbl.hash (plan.seed, key) mod 1000 < plan.rate

let crash_point key =
  match Atomic.get storage_state with
  | Some ({ mode = Crash; _ } as plan) when storage_selects plan key ->
    raise (Crashed key)
  | _ -> ()

let on_write key frame =
  match Atomic.get storage_state with
  | Some ({ mode = Torn; _ } as plan)
    when storage_selects plan key && String.length frame > 0 ->
    `Torn (String.sub frame 0 (Hashtbl.hash (plan.seed, key, "cut") mod String.length frame))
  | Some ({ mode = Flip; _ } as plan)
    when storage_selects plan key && String.length frame > 0 ->
    let bit = Hashtbl.hash (plan.seed, key, "bit") mod (8 * String.length frame) in
    let b = Bytes.of_string frame in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    `Write (Bytes.to_string b)
  | _ -> `Write frame

(* -- appending --------------------------------------------------------------- *)

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  fsync : bool;
  epoch : int;  (** stamped on every frame this writer appends *)
  fault_key : string;  (** storage-fault key base (replica-distinct) *)
  mutable appended : int;  (** appends since open; part of the fault key *)
}

let open_append ?(fsync = true) ?(epoch = 0) ?fault_key path =
  let fd = Unix.openfile path append_flags 0o644 in
  let fault_key =
    match fault_key with Some k -> k | None -> Filename.basename path
  in
  { path; fd = Some fd; fsync; epoch; fault_key; appended = 0 }

let descr t =
  match t.fd with Some fd -> fd | None -> invalid_arg ("Journal: closed: " ^ t.path)

(* After renaming (or creating) a directory entry, the entry itself
   lives in the parent directory's data: without fsyncing the parent, a
   power failure can forget the rename even though the file contents
   were fsynced. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd -> with_descr fd fsync_fd
  | exception Unix.Unix_error _ -> ()

let append t payload =
  let fd = descr t in
  t.appended <- t.appended + 1;
  let key = Printf.sprintf "%s#%d" t.fault_key t.appended in
  crash_point ("journal/append/enter:" ^ key);
  (match on_write ("journal/write:" ^ key) (frame_epoch ~epoch:t.epoch payload) with
  | `Write data -> write_string fd data
  | `Torn prefix ->
    (* a torn write is a crash mid-write: the prefix reaches the disk,
       the rest never does *)
    write_string fd prefix;
    fsync_fd fd;
    raise (Crashed ("torn write: " ^ key)));
  crash_point ("journal/append/written:" ^ key);
  if t.fsync then fsync_fd fd;
  crash_point ("journal/append/synced:" ^ key)

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    close_noerr fd

(** Replace [path] with a journal holding exactly [payloads] (stamped
    with [epoch] when given), via temp file + atomic rename + parent
    directory fsync (with crash points just before the rename and in
    the rename-durable window before the dirfd fsync). *)
let write_atomic ?(fsync = true) ?(epoch = 0) path payloads =
  let tmp = path ^ ".tmp" in
  with_descr (Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644) (fun fd ->
      write_string fd (String.concat "" (List.map (frame_epoch ~epoch) payloads));
      if fsync then fsync_fd fd);
  crash_point ("journal/rename:" ^ Filename.basename path);
  Sys.rename tmp path;
  (* the rename is not durable until the parent directory is: a crash
     here may roll the file back to its pre-rename contents *)
  crash_point ("journal/rename/unsynced:" ^ Filename.basename path);
  if fsync then fsync_dir (Filename.dirname path)

(* -- scanning ---------------------------------------------------------------- *)

type damage =
  | Torn_tail of { offset : int; raw : string }
  | Corrupt of { offset : int; raw : string }

type scan = {
  records : string list;
  spans : (int * int) list;
      (** [(offset, length)] of each valid record's whole frame in the
          scanned image, in [records] order — what frame-level repair
          patches with. Spans, not copies: only scrub reads frames. *)
  epochs : int list;  (** the epoch stamped on each valid frame *)
  damage : damage list;
  first_damage_index : int option;
      (** number of valid records preceding the first damaged region *)
  max_epoch : int;  (** highest epoch stamped on any valid frame *)
  epoch_regressions : int;
      (** valid frames stamped below the running epoch maximum — the
          durable fingerprint of an accepted stale-epoch append *)
}

(* The frame form whose magic starts at [pos] (1 for [HGJ1], 2 for
   [HGJ2], 0 for neither), read in place. *)
let magic_at s pos =
  if
    pos + 5 <= String.length s
    && String.unsafe_get s pos = 'H'
    && String.unsafe_get s (pos + 1) = 'G'
    && String.unsafe_get s (pos + 2) = 'J'
    && String.unsafe_get s (pos + 4) = ' '
  then match String.unsafe_get s (pos + 3) with '1' -> 1 | '2' -> 2 | _ -> 0
  else 0

(* The 8 lowercase hex digits at [pos] as an int, or -1. *)
let hex8 s pos =
  let rec go i acc =
    if i = pos + 8 then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go pos 0

(* A syntactically valid header at [pos], which the caller has checked
   holds a whole header of its form: (payload-len, crc, epoch,
   header-len). *)
let parse_header s pos =
  match magic_at s pos with
  | 1 ->
    let len = hex8 s (pos + 5) and crc = hex8 s (pos + 14) in
    if s.[pos + 13] = ' ' && s.[pos + 22] = '\n' && len >= 0 && crc >= 0 then
      Some (len, crc, 0, header_len)
    else None
  | 2 ->
    let len = hex8 s (pos + 5) and crc = hex8 s (pos + 14) and epoch = hex8 s (pos + 23) in
    if
      s.[pos + 13] = ' '
      && s.[pos + 22] = ' '
      && s.[pos + 31] = '\n'
      && len >= 0 && crc >= 0 && epoch >= 0
    then Some (len, crc, epoch, header_len2)
    else None
  | _ -> None

let scan_string s =
  let n = String.length s in
  let records = ref [] and damage = ref [] and first = ref None in
  let spans = ref [] and epochs = ref [] in
  let max_epoch = ref 0 and regressions = ref 0 in
  let note d =
    if !first = None then first := Some (List.length !records);
    damage := d :: !damage
  in
  (* position of the next "\nHGJ1 " or "\nHGJ2 " strictly after [from],
     at the 'H' *)
  let find_resync from =
    let rec go i =
      if i + 1 + String.length magic > n then None
      else if s.[i] = '\n' && magic_at s (i + 1) <> 0 then Some (i + 1)
      else go (i + 1)
    in
    go from
  in
  let skip_damage pos =
    match find_resync pos with
    | Some next ->
      note (Corrupt { offset = pos; raw = String.sub s pos (next - pos) });
      Some next
    | None ->
      note (Corrupt { offset = pos; raw = String.sub s pos (n - pos) });
      None
  in
  let rec step pos =
    if pos >= n then ()
    else if n - pos < header_len || (magic_at s pos = 2 && n - pos < header_len2) then
      (* shorter than its header: a write torn before the frame completed *)
      note (Torn_tail { offset = pos; raw = String.sub s pos (n - pos) })
    else
      match parse_header s pos with
      | None -> (
        match skip_damage pos with Some next -> step next | None -> ())
      | Some (plen, crc, epoch, hlen) ->
        let fin = pos + hlen + plen + 1 in
        if fin > n then (
          (* The frame claims to extend past EOF. Only a frame with no
             frame boundary after it is a genuinely torn tail; if valid
             frames follow, the length field itself was corrupted and
             treating the rest of the file as torn would silently drop
             every good record after it — resynchronize instead. *)
          match find_resync pos with
          | Some next ->
            note (Corrupt { offset = pos; raw = String.sub s pos (next - pos) });
            step next
          | None -> note (Torn_tail { offset = pos; raw = String.sub s pos (n - pos) }))
        else
          if s.[fin - 1] = '\n' && Crc32.substring s (pos + hlen) plen = crc then begin
            records := String.sub s (pos + hlen) plen :: !records;
            spans := (pos, fin - pos) :: !spans;
            epochs := epoch :: !epochs;
            if epoch < !max_epoch then incr regressions
            else max_epoch := epoch;
            step fin
          end
          else if s.[fin - 1] = '\n' then begin
            (* framing held but the payload (or crc field) was flipped:
               quarantine just this record and continue *)
            note (Corrupt { offset = pos; raw = String.sub s pos (fin - pos) });
            step fin
          end
          else
            (* the length field itself is suspect: resynchronize *)
            match skip_damage pos with Some next -> step next | None -> ()
  in
  step 0;
  {
    records = List.rev !records;
    spans = List.rev !spans;
    epochs = List.rev !epochs;
    damage = List.rev !damage;
    first_damage_index = !first;
    max_epoch = !max_epoch;
    epoch_regressions = !regressions;
  }

let scan path = scan_string (read_file path)

(* -- quarantine sidecars -------------------------------------------------------- *)

let sidecar path = path ^ ".quarantine"

(** Append each damaged region of [path]'s scan to its quarantine
    sidecar with a readable header per region. *)
let quarantine_damage path damage =
  if damage <> [] then begin
    let b = Buffer.create 256 in
    List.iter
      (fun d ->
        let kind, offset, raw =
          match d with
          | Torn_tail { offset; raw } -> ("torn", offset, raw)
          | Corrupt { offset; raw } -> ("corrupt", offset, raw)
        in
        Printf.bprintf b "## %s kind=%s offset=%d bytes=%d\n%s\n" (Filename.basename path) kind
          offset (String.length raw) raw)
      damage;
    with_descr (Unix.openfile (sidecar path) append_flags 0o644) (fun fd ->
        write_string fd (Buffer.contents b))
  end

(** The [kind=corrupt] headers {!quarantine_damage} wrote to [path]'s
    sidecar: lines that start with ["##"] and mention [kind=corrupt]. *)
let corrupt_regions path =
  read_file (sidecar path)
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         String.starts_with ~prefix:"##" line
         && Homeguard_solver.Fault.contains ~sub:"kind=corrupt" line)
  |> List.length
