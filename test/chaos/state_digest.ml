(* Digest of a state directory: one line per regular file, sorted by
   path relative to the directory, as "<md5 hex>  <path>".

     state_digest.exe DIR

   The chaos campaign's state dir (every journal, snapshot, quarantine
   sidecar and repro it leaves) is pinned byte for byte by diffing this
   listing against a checked-in file. *)

let rec walk root rel acc =
  let dir = if rel = "" then root else Filename.concat root rel in
  Array.fold_left
    (fun acc name ->
      let rel = if rel = "" then name else rel ^ "/" ^ name in
      let path = Filename.concat root rel in
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR -> walk root rel acc
      | Unix.S_REG -> rel :: acc
      | _ -> acc)
    acc (Sys.readdir dir)

let () =
  match Sys.argv with
  | [| _; root |] ->
    List.iter
      (fun rel ->
        Printf.printf "%s  %s\n"
          (Digest.to_hex (Digest.file (Filename.concat root rel)))
          rel)
      (List.sort String.compare (walk root "" []))
  | _ ->
    prerr_endline "usage: state_digest DIR";
    exit 2
