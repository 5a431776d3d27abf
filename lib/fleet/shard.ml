(** One shard worker: a {!Broker} plus the homes the supervisor
    assigned it.

    Every home is an explicit value rooted in its own directory under
    the fleet root, so shard ownership is purely logical — "moving" a
    home to another shard means the new owner replays its journal
    ({!Homeguard_store.Home.open_}), no files move. That is what makes
    rebalance-after-permanent-failure and supervised restart the same
    operation: open the journal, recover, serve. *)

module Home = Homeguard_store.Home
module Broker = Homeguard_serve.Broker
module Vcache = Homeguard_vcache.Vcache

type t = {
  fleet_dir : string;
  fsync : bool;
  mode : Home.mode;
  replicas : int;  (** replica count per home journal (>= 1) *)
  epoch_of : string -> int;
      (** the ownership epoch the supervisor granted this shard for a
          home: every home opens fenced *)
  configure : Homeguard_detector.Detector.config -> Homeguard_detector.Detector.config;
  vcache : Vcache.handle option;
      (** this incarnation's cache handle — retained so chaos can drive
          a wedged shard's {e stale} handle against the fence *)
  broker : Broker.t;
}

(* Home ids are caller-chosen; keep the mapping to directory names
   injective and filesystem-safe. Bytes in [A-Za-z0-9_-] stay as they
   are; every other byte, '.' included, becomes '.' and two lowercase
   hex digits, so a '.' always opens an escape. *)
let home_dir_name id =
  let b = Buffer.create (String.length id + 2) in
  Buffer.add_string b "h_";
  String.iter
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf ".%02x" (Char.code c)))
    id;
  Buffer.contents b

(* Replica k (k >= 1) lives under the distinct replica root
   [fleet_dir/r<k>]; the primary root is [fleet_dir] itself, so an R=1
   fleet is byte-compatible with a pre-replication one. *)
let replica_roots ~fleet_dir ~replicas =
  fleet_dir
  :: List.init (max 0 (replicas - 1)) (fun k ->
         Filename.concat fleet_dir (Printf.sprintf "r%d" (k + 1)))

let home_dirs ~fleet_dir ~replicas id =
  let name = home_dir_name id in
  List.map (fun root -> Filename.concat root name) (replica_roots ~fleet_dir ~replicas)

let home_entries ~fleet_dir =
  Sys.readdir fleet_dir |> Array.to_list
  |> List.filter (fun e ->
         String.starts_with ~prefix:"h_" e
         && Sys.is_directory (Filename.concat fleet_dir e))
  |> List.sort compare

let cache_dirs ~fleet_dir ~replicas =
  List.map (fun root -> Filename.concat root "vcache") (replica_roots ~fleet_dir ~replicas)

let broker t = t.broker
let vcache t = t.vcache

let add_home t id =
  let dirs = home_dirs ~fleet_dir:t.fleet_dir ~replicas:t.replicas id in
  let home, report =
    Home.open_ ~fsync:t.fsync ~mode:t.mode ~configure:t.configure
      ~replicas:(List.tl dirs) ~epoch:(t.epoch_of id) ~dir:(List.hd dirs) ()
  in
  Broker.add_home t.broker ~id home;
  report

let open_ ~broker_config ~fsync ~mode ~replicas ~epoch_of ~on_recovery ?vcache ~fleet_dir
    ~home_ids () =
  if replicas < 1 then invalid_arg "Shard.open_: replicas < 1";
  let t =
    {
      fleet_dir;
      fsync;
      mode;
      replicas;
      epoch_of;
      configure =
        (match vcache with None -> Fun.id | Some h -> Vcache.configure h);
      vcache;
      broker = Broker.create ~config:broker_config ();
    }
  in
  (* Opening is all-or-nothing: a recovery crash mid-way must not leak
     the homes already opened. [on_recovery] fires per home as it
     opens, so the reports of the homes recovered before a crash are
     not lost with the failed attempt — a recovery that quarantined a
     corrupt record repairs the journal on disk, and a retry would
     replay the repaired journal cleanly, silently erasing the
     in-memory evidence of the damage. *)
  (try
     List.iter
       (fun id ->
         let report = add_home t id in
         on_recovery id report)
       home_ids
   with e ->
     List.iter (fun (_, h) -> try Home.close h with _ -> ()) (Broker.homes t.broker);
     raise e);
  t

let release_home t id =
  match Broker.remove_home t.broker id with
  | None -> false
  | Some home ->
    Home.close home;
    true

let close t =
  List.iter
    (fun (id, _) -> ignore (release_home t id))
    (Broker.homes t.broker)
