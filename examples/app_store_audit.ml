(** App-store audit (paper §VIII-B): pairwise CAI detection over the
    device-controlling corpus, reporting per-category statistics grouped
    by Switch / Mode / Others as in Fig 8, plus the notable real-world
    cases the paper lists.

    Run with: [dune exec examples/app_store_audit.exe] *)

module Rule = Homeguard_rules.Rule
module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
open Homeguard_corpus

(* Fig 8 groups: apps controlling a bare switch, apps controlling the
   location mode, and everything else. *)
let group_of (app : Rule.smartapp) =
  let controls_mode =
    List.exists
      (fun (r : Rule.t) ->
        List.exists (fun a -> a.Rule.target = Rule.Act_location_mode) r.Rule.actions)
      app.Rule.rules
  in
  let controls_generic_switch =
    List.exists
      (fun (r : Rule.t) ->
        List.exists
          (fun a ->
            match a.Rule.target with
            | Rule.Act_device v ->
              Rule.capability_of_input app v = Some "switch"
              && Homeguard_detector.Effects.classify app v
                 = Homeguard_detector.Effects.Generic_switch
            | _ -> false)
          r.Rule.actions)
      app.Rule.rules
  in
  if controls_mode then `Mode else if controls_generic_switch then `Switch else `Others

let () =
  Printf.printf "== App-store audit ==\n%s\n\n" (Corpus.stats ());
  let apps =
    List.map
      (fun (e : App_entry.t) ->
        (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app)
      Corpus.audit_apps
  in
  let ctx = Detector.create Detector.offline_config in
  let threats = Detector.detect_all ctx apps in
  Printf.printf "analyzed %d apps pairwise (%d solver calls)\n" (List.length apps)
    ctx.Detector.solver_calls;
  Printf.printf "total threat instances: %d\n\n" (List.length threats);

  (* Fig 8: category x group counts. *)
  let count group cat =
    List.length
      (List.filter
         (fun (t : Threat.t) ->
           t.Threat.category = cat
           && (group_of t.Threat.app1 = group || group_of t.Threat.app2 = group))
         threats)
  in
  print_endline "Fig 8-style statistics (threat instances by group):";
  Printf.printf "%-8s %6s %6s %6s %6s %6s %6s %6s\n" "group" "AR" "GC" "CT" "SD" "LT" "EC" "DC";
  List.iter
    (fun (label, group) ->
      Printf.printf "%-8s" label;
      List.iter
        (fun cat -> Printf.printf " %6d" (count group cat))
        Threat.all_categories;
      print_newline ())
    [ ("Switch", `Switch); ("Mode", `Mode); ("Others", `Others) ];

  (* The paper's §VIII-B named findings. *)
  print_endline "\nNotable detected cases (paper §VIII-B items 1-6):";
  let show_pair name1 name2 =
    let involved =
      List.filter
        (fun (t : Threat.t) ->
          (t.Threat.app1.Rule.name = name1 && t.Threat.app2.Rule.name = name2)
          || (t.Threat.app1.Rule.name = name2 && t.Threat.app2.Rule.name = name1))
        threats
    in
    Printf.printf "  %s vs %s: %s\n" name1 name2
      (if involved = [] then "none"
       else
         String.concat ", "
           (List.sort_uniq compare
              (List.map (fun (t : Threat.t) -> Threat.category_to_string t.Threat.category) involved)))
  in
  show_pair "SwitchChangesMode" "MakeItSo";
  show_pair "CurlingIron" "SwitchChangesMode";
  show_pair "NFCTagToggle" "LockItWhenILeave";
  show_pair "LetThereBeDark" "UndeadEarlyWarning";
  show_pair "ItsTooHot" "EnergySaver";
  show_pair "LightUpTheNight" "SmartNightlight"
