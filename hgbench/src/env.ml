(** What a run needs to know about its process and its checkout: the
    open-file limit, the code version, the corpus snapshot, and file
    sizes under its scratch root. *)

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> String.split_on_char '\n' s
  | exception Sys_error _ -> []

let words line = List.filter (( <> ) "") (String.split_on_char ' ' line)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Soft limit on open files, [None] when unknown or unlimited. *)
let fd_soft_limit () =
  List.find_map
    (fun line ->
      if starts_with ~prefix:"Max open files" line then
        match words line with
        | _ :: _ :: _ :: soft :: _ -> int_of_string_opt soft
        | _ -> None
      else None)
    (read_lines "/proc/self/limits")

let open_fds () =
  match Sys.readdir "/proc/self/fd" with a -> Array.length a | exception Sys_error _ -> 0

(** Refuse, before any work, a fleet that would run out of file
    descriptors part way: each home holds one journal per replica open
    for its whole life.
    @raise Failure naming the limit to raise. *)
let preflight_fds ~homes ~replicas =
  let margin = 256 in
  let need = (homes * replicas) + margin in
  match fd_soft_limit () with
  | Some limit when need > limit ->
    failwith
      (Printf.sprintf
         "%d homes x %d replicas need about %d open files, above the soft limit %d; \
          raise it with ulimit -n"
         homes replicas need limit)
  | _ -> ()

(** The code version: [HOMEGUARD_CODE_VERSION] if set, else the commit
    [.git/HEAD] names (read directly, no shell), else ["unknown"]. *)
let code_version () =
  match Sys.getenv_opt "HOMEGUARD_CODE_VERSION" with
  | Some v when String.trim v <> "" -> String.trim v
  | _ -> (
    let first path = match read_lines path with l :: _ -> Some (String.trim l) | [] -> None in
    match first ".git/HEAD" with
    | Some head when starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match first (Filename.concat ".git" ref_) with
      | Some sha when sha <> "" -> sha
      | _ ->
        (* a packed ref: "<sha> <ref>" *)
        List.find_map
          (fun line ->
            match words line with
            | [ sha; r ] when r = ref_ -> Some sha
            | _ -> None)
          (read_lines ".git/packed-refs")
        |> Option.value ~default:"unknown")
    | Some sha when sha <> "" -> sha
    | _ -> "unknown")

(** Digest of the audit pool's names and sources — the corpus snapshot
    every dataset id starts from. *)
let corpus_hash () =
  let module App_entry = Homeguard_corpus.App_entry in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : App_entry.t) ->
      Buffer.add_string buf e.App_entry.name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf e.App_entry.source;
      Buffer.add_char buf '\000')
    Homeguard_corpus.Corpus.audit_apps;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 12

(** Total size of the regular files under [path], in bytes. *)
let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc e -> acc + du (Filename.concat path e))
      0
      (try Sys.readdir path with Sys_error _ -> [||])
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
