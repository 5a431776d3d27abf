(** Configuration recorder: per-home history of install-time bindings.

    Keeps the device-variable → 128-bit-device-id map and the user value
    map for every installed app (paper §IV-C). It supplies the detector's
    online notion of "same device" — exact id equality — and the
    configuration-value constraints (e.g. [threshold1 = 30]) that make
    overlap detection precise. *)

module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term
module Detector = Homeguard_detector.Detector

type app_config = {
  app_name : string;
  devices : (string * string) list;  (** var -> device id *)
  values : (string * Term.t) list;  (** var -> configured value *)
}

type t = { mutable configs : app_config list }

let create () = { configs = [] }

let record t config =
  t.configs <-
    config :: List.filter (fun c -> c.app_name <> config.app_name) t.configs

(** Plain-decimal integer parse. [int_of_string_opt] also accepts OCaml
    literal syntax — ["0x1f"], ["0b10"], ["1_000"] — which a URI value
    never means: a user who typed ["0x1f"] configured a string, and
    treating it as 31 silently changes solver constraints. *)
let decimal_of_string_opt s =
  let n = String.length s in
  let digits_from i =
    n > i
    && (let ok = ref true in
        String.iteri (fun j c -> if j >= i && not (c >= '0' && c <= '9') then ok := false) s;
        !ok)
  in
  if digits_from (if n > 0 && s.[0] = '-' then 1 else 0) then int_of_string_opt s else None

(** Record from a received configuration URI. Values that parse as
    plain decimal integers become numeric terms; everything else —
    including ["0x1f"]-style literals — stays a string. *)
let record_uri t (uri : Config_uri.t) =
  record t
    {
      app_name = uri.Config_uri.app_name;
      devices = uri.Config_uri.devices;
      values =
        List.map
          (fun (var, v) ->
            match decimal_of_string_opt v with
            | Some n -> (var, Term.Int n)
            | None -> (var, Term.Str v))
          uri.Config_uri.values;
    }

let find t app_name = List.find_opt (fun c -> c.app_name = app_name) t.configs

let device_id t app_name var =
  Option.bind (find t app_name) (fun c -> List.assoc_opt var c.devices)

(** Online same-device test: identical 128-bit device ids, looked up
    by app name and var. The capability in the descriptors is not read:
    a device id bound to any var, capability input or not, counts. *)
let same_device t (d1 : Detector.device_input) (d2 : Detector.device_input) =
  match
    ( device_id t d1.Detector.di_app.Rule.name d1.Detector.di_var,
      device_id t d2.Detector.di_app.Rule.name d2.Detector.di_var )
  with
  | Some id1, Some id2 -> id1 = id2
  | _ -> false

(** Configured value constraints for an app (fed to the solver). *)
let app_constraints t (app : Rule.smartapp) =
  match find t app.Rule.name with Some c -> c.values | None -> []

(** A detector configuration backed by this recorder (the online,
    deployment-accurate mode). *)
let detector_config t : Detector.config =
  {
    Detector.same_device = same_device t;
    app_constraints = app_constraints t;
    reuse = true;
    budget = Homeguard_solver.Budget.default_spec;
    escalate = true;
    shared_cache = None;
  }
