(** Physical/virtual devices as seen by the platform.

    Every device carries the globally unique 128-bit identifier that
    SmartThings assigns (rendered as 32 hex digits), a user-facing label,
    and the set of capabilities it supports. The configuration collector
    (paper §VII) ships these IDs to the detector so that two rules can be
    matched on the *same* device rather than merely the same type. *)

type id = string  (** 32 lowercase hex digits *)

type t = {
  id : id;
  label : string;
  capabilities : string list;  (** short capability names *)
  device_type : string;
      (** concrete product type (e.g. "light", "window opener") — used to
          disambiguate bare capability.switch devices (paper §VIII-B) *)
}

(* Deterministic 128-bit id from a seed string: speeds tests and makes
   corpus runs reproducible without an RNG dependency. *)
let id_of_seed seed =
  let h1 = Hashtbl.hash seed in
  let h2 = Hashtbl.hash (seed ^ "#2") in
  let h3 = Hashtbl.hash (seed ^ "#3") in
  let h4 = Hashtbl.hash (seed ^ "#4") in
  Printf.sprintf "%08x%08x%08x%08x" h1 h2 h3 h4

let make ?device_type ~label capabilities =
  let device_type = match device_type with Some t -> t | None -> label in
  { id = id_of_seed (label ^ ":" ^ device_type); label; capabilities; device_type }

(** All attributes exposed by the device via its capabilities. *)
let attributes dev =
  List.concat_map
    (fun cap_name ->
      match Capability.find cap_name with
      | Some cap -> List.map (fun a -> a.Capability.attr_name) cap.Capability.attributes
      | None -> [])
    dev.capabilities
