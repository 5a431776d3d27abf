(** Capability-registry sanity tests. *)

open Homeguard_st

let find_qualified =
  Helpers.test "find accepts qualified and short names" (fun () ->
      Helpers.check_bool "short" true (Capability.find "switch" <> None);
      Helpers.check_bool "qualified" true (Capability.find "capability.switch" <> None);
      Helpers.check_bool "missing" true (Capability.find "capability.nonsense" = None))

let opposites_symmetric =
  Helpers.test "declared opposites point back" (fun () ->
      List.iter
        (fun cap ->
          List.iter
            (fun (c : Capability.command) ->
              match c.Capability.opposite with
              | Some other -> (
                match Capability.command_of cap other with
                | Some _ -> ()
                | None ->
                  Alcotest.failf "opposite %s of %s.%s not a command" other
                    cap.Capability.cap_name c.Capability.cmd_name)
              | None -> ())
            cap.Capability.commands)
        Capability.registry)

let writes_target_declared_attrs =
  Helpers.test "command writes target declared attributes" (fun () ->
      List.iter
        (fun cap ->
          List.iter
            (fun (c : Capability.command) ->
              match c.Capability.writes with
              | Some w -> (
                match Capability.attribute_of cap w.Capability.target_attr with
                | Some _ -> ()
                | None ->
                  Alcotest.failf "%s.%s writes undeclared attribute %s" cap.Capability.cap_name
                    c.Capability.cmd_name w.Capability.target_attr)
              | None -> ())
            cap.Capability.commands)
        Capability.registry)

let fixed_values_in_domain =
  Helpers.test "fixed written values lie in the attribute domain" (fun () ->
      List.iter
        (fun cap ->
          List.iter
            (fun (c : Capability.command) ->
              match c.Capability.writes with
              | Some { Capability.target_attr; fixed_value = Some v } -> (
                match Capability.attribute_of cap target_attr with
                | Some { Capability.domain = Capability.Enum values; _ } ->
                  if not (List.mem v values) then
                    Alcotest.failf "%s.%s writes %s outside domain" cap.Capability.cap_name
                      c.Capability.cmd_name v
                | _ -> ())
              | _ -> ())
            cap.Capability.commands)
        Capability.registry)

(* The declared opposite of a capability's command. *)
let opposite cap cmd =
  Option.bind (Capability.find cap) (fun c ->
      Option.bind (Capability.command_of c cmd) (fun m -> m.Capability.opposite))

let switch_contradiction =
  Helpers.test "on/off contradict" (fun () ->
      Helpers.check_bool "on vs off" true (opposite "switch" "on" = Some "off");
      Helpers.check_bool "off vs on" true (opposite "switch" "off" = Some "on"))

let lock_contradiction =
  Helpers.test "lock/unlock contradict" (fun () ->
      Helpers.check_bool "lock vs unlock" true (opposite "lock" "lock" = Some "unlock"))

let command_lookup =
  Helpers.test "is_capability_command" (fun () ->
      Helpers.check_bool "on" true (Capability.is_capability_command "on");
      Helpers.check_bool "setHeatingSetpoint" true
        (Capability.is_capability_command "setHeatingSetpoint");
      Helpers.check_bool "subscribe is not" false (Capability.is_capability_command "subscribe"))

let attribute_domain_lookup =
  Helpers.test "attribute_domain" (fun () ->
      (match Capability.attribute_domain "switch" with
      | Some (Capability.Enum values) ->
        Helpers.check_bool "on in domain" true (List.mem "on" values)
      | _ -> Alcotest.fail "expected enum domain");
      match Capability.attribute_domain "temperature" with
      | Some (Capability.Numeric (lo, hi)) -> Helpers.check_bool "bounds" true (lo < hi)
      | _ -> Alcotest.fail "expected numeric domain")

let registry_size =
  Helpers.test "registry covers a realistic capability surface" (fun () ->
      Helpers.check_bool "40+ capabilities" true (List.length Capability.registry >= 40);
      Helpers.check_bool "40+ commands" true
        (List.length (List.concat_map (fun c -> c.Capability.commands) Capability.registry)
        >= 40))

(* Table VI's sensitive sinks: every tracked API but push notifications. *)
let table_vi_sink name =
  match Api.kind_of name with Some Api.Push_notification | None -> false | Some _ -> true

let sink_table =
  Helpers.test "Table VI sink classification" (fun () ->
      Helpers.check_bool "httpGet" true (table_vi_sink "httpGet");
      Helpers.check_bool "runIn" true (table_vi_sink "runIn");
      Helpers.check_bool "setLocationMode" true (table_vi_sink "setLocationMode");
      Helpers.check_bool "sendPush excluded" false (table_vi_sink "sendPush");
      Helpers.check_bool "subscribe excluded" false (table_vi_sink "subscribe"))

let table_vi_count =
  Helpers.test "Table VI has 22 sinks (21 + runDaily found in §VIII-B)" (fun () ->
      let n = List.length (List.filter (fun (n, _) -> table_vi_sink n) Api.sink_apis) in
      Helpers.check_int "sinks" 22 n)

let scheduling_apis =
  Helpers.test "scheduling API classification" (fun () ->
      Helpers.check_bool "runIn" true (Api.kind_of "runIn" = Some (Api.Delayed_run `Seconds_arg));
      Helpers.check_bool "runEvery5Minutes" true
        (Api.kind_of "runEvery5Minutes" = Some (Api.Periodic_run 300));
      Helpers.check_bool "schedule" true (Api.kind_of "schedule" = Some Api.Daily_schedule);
      Helpers.check_bool "httpGet not" true (Api.kind_of "httpGet" = Some Api.Http))

let env_feature_mapping =
  Helpers.test "sensor attributes map to environment features" (fun () ->
      Helpers.check_bool "temperature" true
        (Env_feature.of_sensor_attribute "temperature" = Some Env_feature.Temperature);
      Helpers.check_bool "power" true
        (Env_feature.of_sensor_attribute "power" = Some Env_feature.Power);
      Helpers.check_bool "switch is not a feature" true
        (Env_feature.of_sensor_attribute "switch" = None))

let device_helpers =
  Helpers.test "device capability helpers" (fun () ->
      let d = Device.make ~label:"Bulb" ~device_type:"light" [ "switch"; "switchLevel" ] in
      Helpers.check_bool "attrs" true (List.mem "level" (Device.attributes d)))

let device_id_deterministic =
  Helpers.test "device ids are deterministic 128-bit hex" (fun () ->
      let d1 = Device.make ~label:"X" ~device_type:"t" [ "switch" ] in
      let d2 = Device.make ~label:"X" ~device_type:"t" [ "switch" ] in
      Helpers.check_string "same seed same id" d1.Device.id d2.Device.id;
      Helpers.check_int "length" 32 (String.length d1.Device.id))

let location_modes =
  Helpers.test "location mode handling" (fun () ->
      let loc = Location.create () in
      Helpers.check_string "default" "Home" loc.Location.current_mode;
      Location.set_mode loc "Vacation";
      Helpers.check_string "set" "Vacation" loc.Location.current_mode;
      Helpers.check_bool "new mode registered" true (List.mem "Vacation" loc.Location.modes))

let tests =
  [
    find_qualified;
    opposites_symmetric;
    writes_target_declared_attrs;
    fixed_values_in_domain;
    switch_contradiction;
    lock_contradiction;
    command_lookup;
    attribute_domain_lookup;
    registry_size;
    scheduling_apis;
    sink_table;
    table_vi_count;
    env_feature_mapping;
    device_helpers;
    device_id_deterministic;
    location_modes;
  ]
