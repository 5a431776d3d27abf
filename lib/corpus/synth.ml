(** Seeded synthetic-home generator.

    Fleet chaos campaigns and the F1 bench need hundreds of distinct
    homes, not the one fixed demo corpus: each synthetic home draws a
    heavy-tailed subset of the benign device-controlling pool
    ({!Corpus.audit_apps}) and a set of install-time configuration
    bindings in the phone-app URI format (§VII-A) — enough variety that
    shard placement, journal recovery and admission bounds are
    exercised over genuinely different workloads, while the same seed
    reproduces the same fleet byte-for-byte. *)

type home = {
  id : string;
  apps : App_entry.t list;  (** distinct; install order *)
  configs : string list;
      (** configuration URIs ([http://my.com/appname:...]) in delivery
          order *)
}

let hex_digits = "0123456789abcdef"
let hex_id st = String.init 32 (fun _ -> hex_digits.[Random.State.int st 16])

(* Heavy-tailed app count: geometric with continue-probability 2/3
   (mean 3), capped at 8 and by the pool. A few homes are much bigger
   than the median — those are the ones that find quadratic-audit
   cliffs. *)
let app_count st =
  let rec go n = if n < 8 && Random.State.int st 3 > 0 then go (n + 1) else n in
  go 1

(* Fisher–Yates over a copy of the pool; take the prefix. *)
let sample st pool n =
  let arr = Array.of_list pool in
  let len = Array.length arr in
  for i = len - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 (min n len))

let config_uri st (app : App_entry.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("http://my.com/appname:" ^ app.App_entry.name ^ "/");
  let devices = 1 + Random.State.int st 2 in
  for d = 1 to devices do
    Buffer.add_string buf (Printf.sprintf "dev%d:%s/" d (hex_id st))
  done;
  let values = Random.State.int st 3 in
  for v = 1 to values do
    Buffer.add_string buf (Printf.sprintf "threshold%d:%d/" v (Random.State.int st 100))
  done;
  Buffer.contents buf

let generate ~pool ~seed ~n_homes () =
  if n_homes < 0 then invalid_arg "Synth.generate: n_homes < 0";
  if pool = [] then invalid_arg "Synth.generate: empty app pool";
  let st = Random.State.make [| 0x5eed; seed |] in
  List.init n_homes (fun i ->
      let id = Printf.sprintf "h%04d" i in
      let apps = sample st pool (app_count st) in
      let configs =
        List.filter_map
          (fun app ->
            (* two homes in three configure a given app *)
            if Random.State.int st 3 < 2 then Some (config_uri st app) else None)
          apps
      in
      { id; apps; configs })
