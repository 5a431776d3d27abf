(** Differential tests for the planner's fast paths: the allocation-free
    switch classifier against the lowercase-and-substring reference it
    replaced, and the fact-driven plan against [detect_pair] over every
    cross-app rule pair. *)

module Rule = Homeguard_rules.Rule
module Formula = Homeguard_solver.Formula
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Effects = Homeguard_detector.Effects
module Channels = Homeguard_detector.Channels
module Corpus = Homeguard_corpus.Corpus
module App_entry = Homeguard_corpus.App_entry
module Config_uri = Homeguard_config.Config_uri
module Recorder = Homeguard_config.Recorder
open Helpers

(* -- reference classifier ---------------------------------------------------- *)

let ref_contains_word haystack word =
  let h = String.lowercase_ascii haystack and n = String.length word in
  let hl = String.length h in
  let rec go i = i + n <= hl && (String.sub h i n = word || go (i + 1)) in
  go 0

let ref_classify_switch_text text =
  let has w = ref_contains_word text w in
  if has "light" || has "lamp" || has "bulb" || has "led" then Effects.Light
  else if has "tv" || has "television" then Effects.Tv
  else if has "heater" || has "heating" then Effects.Heater
  else if has "air condition" || has " ac " || has "a/c" || has "aircon" then
    Effects.Air_conditioner
  else if has "fan" then Effects.Fan
  else if has "window" then Effects.Window_opener
  else if has "curtain" || has "blind" then Effects.Curtain
  else if has "speaker" || has "sound" then Effects.Speaker
  else if has "camera" then Effects.Camera
  else if has "coffee" then Effects.Coffee_maker
  else if has "humidifier" then Effects.Humidifier
  else if has "outlet" || has "plug" then Effects.Outlet
  else Effects.Generic_switch

let ref_classify (app : Rule.smartapp) var =
  match Rule.capability_of_input app var with
  | None -> Effects.Other "unknown"
  | Some cap -> (
    match cap with
    | "lock" -> Effects.Lock_device
    | "doorControl" | "garageDoorControl" -> Effects.Door
    | "valve" -> Effects.Valve_device
    | "thermostat" | "thermostatHeatingSetpoint" | "thermostatCoolingSetpoint" ->
      Effects.Thermostat_device
    | "alarm" -> Effects.Alarm_device
    | "windowShade" -> Effects.Shade
    | "musicPlayer" -> Effects.Music_player
    | "switch" | "switchLevel" -> (
      let input = List.find_opt (fun i -> i.Rule.var = var) app.Rule.inputs in
      let title = match input with Some { Rule.title = Some t; _ } -> t | _ -> "" in
      match ref_classify_switch_text (var ^ " " ^ title) with
      | Effects.Generic_switch ->
        ref_classify_switch_text (String.concat " " [ app.Rule.name; app.Rule.description ])
      | cls -> cls)
    | cap -> Effects.Other cap)

let class_str = Effects.class_to_string

let extract_entry (e : App_entry.t) = extract ~name:e.App_entry.name e.App_entry.source
let corpus_apps = lazy (List.map extract_entry Corpus.all)

let classifier_matches_reference_on_corpus =
  test "classifier agrees with the reference on every corpus and synth input" (fun () ->
      (* synthetic homes draw their apps from the audit pool: check each
         app any of them installs, as extracted for that home *)
      let synth_apps =
        List.concat_map
          (fun seed ->
            List.concat_map
              (fun (h : Homeguard_corpus.Synth.home) ->
                List.map extract_entry h.Homeguard_corpus.Synth.apps)
              (Corpus.synth ~seed ~n_homes:20))
          [ 1; 2; 3 ]
      in
      let checked = ref 0 in
      List.iter
        (fun (app : Rule.smartapp) ->
          let texts =
            String.concat " " [ app.Rule.name; app.Rule.description ]
            :: List.map
                 (fun (i : Rule.input_decl) ->
                   i.Rule.var ^ " " ^ Option.value ~default:"" i.Rule.title)
                 app.Rule.inputs
          in
          List.iter
            (fun text ->
              check_string text
                (class_str (ref_classify_switch_text text))
                (class_str (Effects.classify_switch_text text)))
            texts;
          List.iter
            (fun (i : Rule.input_decl) ->
              incr checked;
              check_string
                (app.Rule.name ^ "/" ^ i.Rule.var)
                (class_str (ref_classify app i.Rule.var))
                (class_str (Effects.classify app i.Rule.var)))
            app.Rule.inputs)
        (Lazy.force corpus_apps @ synth_apps);
      check_bool "inputs checked" true (!checked > 100))

(* Mixed-case text assembled from keywords (in random case), near
   misses, separators and filler, so keywords land at the start, the
   end, inside words and overlapping one another. *)
let gen_text =
  let open QCheck2.Gen in
  let fragments =
    [
      "light"; "lamp"; "bulb"; "led"; "tv"; "television"; "heater"; "heating";
      "air condition"; " ac "; "a/c"; "aircon"; "fan"; "window"; "curtain"; "blind";
      "speaker"; "sound"; "camera"; "coffee"; "humidifier"; "outlet"; "plug"; "ac"; "a/";
      "air"; "lig"; "tele"; "sw"; "switch"; "on"; "the"; "/"; " "; "  "; "-"; "x";
    ]
  in
  let recase s =
    map
      (fun bits ->
        String.mapi
          (fun i c ->
            if List.nth bits (i mod List.length bits) then Char.uppercase_ascii c else c)
          s)
      (list_size (int_range 1 8) bool)
  in
  map (String.concat "")
    (list_size (int_range 0 8) (oneofl fragments >>= recase))

let classifier_matches_reference_on_generated =
  qtest ~count:2000 "classifier agrees with the reference on generated mixed-case text"
    gen_text (fun text ->
      Effects.classify_switch_text text = ref_classify_switch_text text)

let classifier_edge_cases =
  test "classifier edge cases: keyword at either end, overlaps, case" (fun () ->
      List.iter
        (fun text ->
          check_string text
            (class_str (ref_classify_switch_text text))
            (class_str (Effects.classify_switch_text text)))
        [
          ""; "LIGHT"; "xx lamp"; "Fan"; "the AC unit"; " ac "; "ac"; " AC"; "A/C";
          "a/c unit"; "aa/cc"; "heater outlet"; "PlugLight"; "TVfan"; "televisio";
          "air conditionER"; "smart plug"; "blinds and curtains"; "sound of the fan";
        ])

(* -- same name, different description ---------------------------------------- *)

let class_table_keys_on_description =
  test "an app with the same name but a different description is classified anew"
    (fun () ->
      let app description =
        {
          Rule.name = "Renamed";
          description;
          inputs =
            [
              {
                Rule.var = "dev";
                input_type = "capability.switch";
                title = Some "Device";
                multiple = false;
              };
            ];
          rules = [];
          uses_web_services = false;
        }
      in
      let heater = app "Turns on the heater" and lamp = app "Turns on the lamp" in
      check_string "heater" "heater" (class_str (Effects.classify heater "dev"));
      check_string "lamp" "light" (class_str (Effects.classify lamp "dev"));
      check_string "heater again" "heater" (class_str (Effects.classify heater "dev")))

(* -- planner reference -------------------------------------------------------- *)

let threat_key (t : Threat.t) = (Threat.to_string t, t.Threat.witness, t.Threat.severity)

(* Every cross-app rule pair, in the planner's enumeration order, run
   through [detect_pair] with no planning pre-filter. *)
let reference_threats config (apps : Rule.smartapp list) =
  let ctx = Detector.create config in
  let tagged = List.concat_map (fun app -> List.map (fun r -> (app, r)) app.Rule.rules) apps in
  let rec go = function
    | [] -> []
    | ((a, _) as p) :: rest ->
      List.concat_map
        (fun ((b, _) as q) ->
          if a.Rule.name = b.Rule.name then [] else Detector.detect_pair ctx p q)
        rest
      @ go rest
  in
  go tagged

let check_plan label config apps =
  let ctx = Detector.create config in
  let plan = Detector.candidate_pairs ctx apps in
  let planned = (Detector.audit_pairs ctx plan).Detector.threats in
  let reference = reference_threats config apps in
  check_int (label ^ ": threat count") (List.length reference) (List.length planned);
  check_bool (label ^ ": threats and order") true
    (List.map threat_key planned = List.map threat_key reference)

(* Every fact field equals the direct derivation it caches. *)
let check_facts config (apps : Rule.smartapp list) =
  let ctx = Detector.create config in
  List.iter
    (fun (app : Rule.smartapp) ->
      let f = Detector.app_facts ctx app in
      let name = app.Rule.name in
      check_bool (name ^ " inputs") true
        (List.map (fun d -> d.Detector.di_var) f.Detector.app_inputs = Rule.device_inputs app);
      List.iter
        (fun (d : Detector.device_input) ->
          let v = d.Detector.di_var in
          check_bool (name ^ " app of " ^ v) true (d.Detector.di_app == app);
          check_bool (name ^ " capability and class of " ^ v) true
            (Option.map (fun cap -> (cap, Effects.classify app v)) (Rule.capability_of_input app v)
            = d.Detector.di_device))
        f.Detector.app_inputs;
      check_int (name ^ " rules") (List.length app.Rule.rules)
        (List.length f.Detector.app_rules);
      List.iter2
        (fun (r : Rule.t) (rf : Detector.rule_facts) ->
          let id = name ^ "/" ^ r.Rule.rule_id in
          check_bool (id ^ " rule") true (rf.Detector.rf_rule == r);
          check_bool (id ^ " sensed") true
            (rf.Detector.rf_sensed = Channels.sensed_feature_of_trigger r.Rule.trigger);
          let cond = Rule.expanded_predicate r in
          check_bool (id ^ " cond") true (rf.Detector.rf_cond = cond);
          check_bool (id ^ " cond vars") true
            (List.map (fun (v, _, _) -> v) rf.Detector.rf_cond_vars = Formula.free_vars cond);
          List.iter
            (fun (v, base, attr) ->
              let joined = match attr with Some a -> base ^ "." ^ a | None -> base in
              check_string (id ^ " split " ^ v) v joined;
              check_bool (id ^ " attr of " ^ v) true
                (not (String.contains (Option.value attr ~default:v) '.')))
            rf.Detector.rf_cond_vars;
          check_int (id ^ " actions") (List.length r.Rule.actions)
            (List.length rf.Detector.rf_actions);
          List.iter2
            (fun (a : Rule.action) (af : Detector.action_facts) ->
              check_bool (id ^ " action") true (af.Detector.af_action == a);
              check_bool (id ^ " writes") true
                (af.Detector.af_writes = Channels.attribute_writes app a);
              check_bool (id ^ " effects") true
                (af.Detector.af_effects = Effects.effects_of_action app a))
            r.Rule.actions rf.Detector.rf_actions)
        app.Rule.rules f.Detector.app_rules)
    apps

let audit_pool = lazy (List.map extract_entry Corpus.audit_apps)

(* A synthetic home as the fleet audits it: its apps plus a recorder fed
   its configuration URIs, so device matching and value bindings are
   the home's own. *)
let home_setup (h : Homeguard_corpus.Synth.home) =
  let apps = List.map extract_entry h.Homeguard_corpus.Synth.apps in
  let recorder = Recorder.create () in
  List.iter
    (fun uri ->
      match Config_uri.decode uri with
      | u -> Recorder.record_uri recorder u
      | exception Config_uri.Malformed _ -> ())
    h.Homeguard_corpus.Synth.configs;
  (apps, Recorder.detector_config recorder)

let synth_seeds = [ 3; 17; 101 ]

let plan_matches_reference_on_audit_pool =
  test "plan = detect_pair over every cross-app pair (125-app audit pool)" (fun () ->
      check_plan "audit pool" Detector.offline_config (Lazy.force audit_pool))

let plan_matches_reference_on_synth =
  test "plan = detect_pair over every cross-app pair (synth homes, three seeds)" (fun () ->
      List.iter
        (fun seed ->
          List.iter
            (fun (h : Homeguard_corpus.Synth.home) ->
              let apps, config = home_setup h in
              let label = Printf.sprintf "seed %d %s" seed h.Homeguard_corpus.Synth.id in
              check_plan (label ^ " offline") Detector.offline_config apps;
              check_plan (label ^ " recorded") config apps)
            (Corpus.synth ~seed ~n_homes:25))
        synth_seeds)

let facts_match_direct_derivations =
  test "every planning fact equals its direct derivation" (fun () ->
      check_facts Detector.offline_config (Lazy.force audit_pool);
      List.iter
        (fun seed ->
          List.iter
            (fun h ->
              let apps, config = home_setup h in
              check_facts config apps)
            (Corpus.synth ~seed ~n_homes:25))
        synth_seeds)

(* -- device relation reference ------------------------------------------------ *)

(* The cell-by-cell relations the facts-based matcher replaced: every
   question re-derives both vars' capability and switch class from the
   apps (offline), or looks both device ids up (online). *)
let ref_offline_same_device app1 v1 app2 v2 =
  match (Rule.capability_of_input app1 v1, Rule.capability_of_input app2 v2) with
  | Some c1, Some c2 when c1 = c2 ->
    if c1 = "switch" || c1 = "switchLevel" then
      let cls1 = ref_classify app1 v1 and cls2 = ref_classify app2 v2 in
      cls1 = cls2 || cls1 = Effects.Generic_switch || cls2 = Effects.Generic_switch
    else true
  | _ -> false

let ref_online_same_device recorder (app1 : Rule.smartapp) v1 (app2 : Rule.smartapp) v2 =
  match
    (Recorder.device_id recorder app1.Rule.name v1, Recorder.device_id recorder app2.Rule.name v2)
  with
  | Some id1, Some id2 -> id1 = id2
  | _ -> false

let ref_unify same (app1 : Rule.smartapp) (app2 : Rule.smartapp) =
  List.concat_map
    (fun v1 ->
      List.filter_map
        (fun v2 -> if same app1 v1 app2 v2 then Some (v1, v2) else None)
        (Rule.device_inputs app2))
    (Rule.device_inputs app1)

(* Every var a detector may ask about: declared inputs, trigger
   subjects, action targets and the bases of condition vars (data
   bindings such as [t] are not inputs at all). *)
let asked_vars (app : Rule.smartapp) =
  let base v = match String.rindex_opt v '.' with Some i -> String.sub v 0 i | None -> v in
  let of_rule (r : Rule.t) =
    (match r.Rule.trigger with Rule.Event { subject = Rule.Device v; _ } -> [ v ] | _ -> [])
    @ List.filter_map
        (fun (a : Rule.action) ->
          match a.Rule.target with Rule.Act_device v -> Some v | _ -> None)
        r.Rule.actions
    @ List.map base (Formula.free_vars (Rule.expanded_predicate r))
  in
  List.sort_uniq compare
    (List.map (fun (i : Rule.input_decl) -> i.Rule.var) app.Rule.inputs
    @ List.concat_map of_rule app.Rule.rules)

(* Online bindings with collisions: every asked var, capability input or
   not, gets one of five device ids, and about one in seven stays
   unbound. *)
let online_recorder (apps : Rule.smartapp list) =
  let recorder = Recorder.create () in
  List.iter
    (fun (app : Rule.smartapp) ->
      let devices =
        List.filter_map
          (fun v ->
            let h = Hashtbl.hash (app.Rule.name, v) in
            if h mod 7 = 0 then None else Some (v, Printf.sprintf "id%d" (h mod 5)))
          (asked_vars app)
      in
      Recorder.record recorder
        { Recorder.app_name = app.Rule.name; devices; values = [ ("threshold1", Homeguard_solver.Term.Int 7) ] })
    apps;
  recorder

type relation_stats = {
  mutable asked : int;
  mutable bare_matches : int;  (** true answers involving a non-input var *)
  mutable mismatches : string list;
}

(* A config whose every device question is checked against the
   reference, keyed by (app, var) only: a descriptor with the wrong
   capability or class answers differently and is caught. *)
let checked_config stats reference (config : Detector.config) =
  let memo = Hashtbl.create 4096 in
  let same (d1 : Detector.device_input) (d2 : Detector.device_input) =
    let answer = config.Detector.same_device d1 d2 in
    let a1 = d1.Detector.di_app and a2 = d2.Detector.di_app in
    let v1 = d1.Detector.di_var and v2 = d2.Detector.di_var in
    let expected =
      let key = (a1.Rule.name, v1, a2.Rule.name, v2) in
      match Hashtbl.find_opt memo key with
      | Some e -> e
      | None ->
        let e = reference a1 v1 a2 v2 in
        Hashtbl.add memo key e;
        e
    in
    stats.asked <- stats.asked + 1;
    if answer && (d1.Detector.di_device = None || d2.Detector.di_device = None) then
      stats.bare_matches <- stats.bare_matches + 1;
    if answer <> expected && List.length stats.mismatches < 5 then
      stats.mismatches <-
        Printf.sprintf "%s/%s ~ %s/%s: got %b" a1.Rule.name v1 a2.Rule.name v2 answer
        :: stats.mismatches;
    answer
  in
  { config with Detector.same_device = same }

(* [pa_unify] of every ordered pair of differently named apps, read
   through a pair cache that answers every lookup with an empty matrix
   (so nothing is detected), in both install orders. *)
let pair_relations config (apps : Rule.smartapp list) =
  let seen = ref [] in
  let pc =
    {
      Detector.pair_lookup =
        (fun pa ->
          let a, b = pa.Detector.pa_apps in
          seen := (a, b, pa.Detector.pa_unify) :: !seen;
          Some
            (Array.make_matrix (List.length a.Rule.rules) (List.length b.Rule.rules) []));
      pair_store = (fun _ _ -> ());
    }
  in
  let config = { config with Detector.pair_cache = Some pc } in
  ignore (Detector.audit_all (Detector.create config) apps);
  ignore (Detector.audit_all (Detector.create config) (List.rev apps));
  !seen

let check_relation label ~full reference config (apps : Rule.smartapp list) =
  let stats = { asked = 0; bare_matches = 0; mismatches = [] } in
  let config = checked_config stats reference config in
  let relations = pair_relations config apps in
  let distinct = List.length (List.sort_uniq compare (List.map (fun (a : Rule.smartapp) -> a.Rule.name) apps)) in
  check_int (label ^ ": every ordered pair") (distinct * (distinct - 1)) (List.length relations);
  let wrong_unify =
    List.filter_map
      (fun ((a : Rule.smartapp), (b : Rule.smartapp), unify) ->
        if unify = ref_unify reference a b then None
        else Some (Printf.sprintf "pa_unify %s ~ %s" a.Rule.name b.Rule.name))
      relations
  in
  Alcotest.(check (list string)) (label ^ ": pa_unify equals the reference") [] wrong_unify;
  (* the detectors' questions: planning's pre-filters always, and every
     per-category detector on a full audit *)
  let ctx = Detector.create config in
  let plan = Detector.candidate_pairs ctx apps in
  if full then ignore (Detector.audit_pairs ctx plan);
  (* and the matcher asked directly, over every var a detector may name *)
  List.iter
    (fun (a : Rule.smartapp) ->
      List.iter
        (fun (b : Rule.smartapp) ->
          if a.Rule.name <> b.Rule.name then
            List.iter
              (fun v1 ->
                List.iter
                  (fun v2 -> ignore (Detector.same_device ctx a b v1 v2))
                  (asked_vars b))
              (asked_vars a))
        apps)
    (if full then apps else []);
  Alcotest.(check (list string)) (label ^ ": every answer equals the reference") [] stats.mismatches;
  stats

let device_relation_matches_reference =
  test "device relation = cell-by-cell reference (pool and synth, three modes)" (fun () ->
      let pool = Lazy.force audit_pool in
      let recorder = online_recorder pool in
      let mixed r =
        { Detector.offline_config with Detector.app_constraints = Recorder.app_constraints r }
      in
      ignore (check_relation "pool offline" ~full:true ref_offline_same_device Detector.offline_config pool);
      ignore (check_relation "pool mixed" ~full:false ref_offline_same_device (mixed recorder) pool);
      let online =
        check_relation "pool online" ~full:false (ref_online_same_device recorder)
          (Recorder.detector_config recorder) pool
      in
      check_bool "online: non-input vars matched by device id" true (online.bare_matches > 0);
      let bare = ref 0 and asked = ref 0 in
      List.iter
        (fun seed ->
          List.iter
            (fun (h : Homeguard_corpus.Synth.home) ->
              let apps, _ = home_setup h in
              let recorder = online_recorder apps in
              let label = Printf.sprintf "seed %d %s" seed h.Homeguard_corpus.Synth.id in
              let offline =
                check_relation (label ^ " offline") ~full:true ref_offline_same_device
                  Detector.offline_config apps
              in
              let mixed =
                check_relation (label ^ " mixed") ~full:true ref_offline_same_device
                  (mixed recorder) apps
              in
              let online =
                check_relation (label ^ " online") ~full:true (ref_online_same_device recorder)
                  (Recorder.detector_config recorder) apps
              in
              asked := !asked + offline.asked + mixed.asked + online.asked;
              bare := !bare + online.bare_matches)
            (Corpus.synth ~seed ~n_homes:25))
        synth_seeds;
      check_bool "synth: questions asked" true (!asked > 0);
      check_bool "synth online: non-input vars matched by device id" true (!bare > 0))

(* A solve hook that always raises makes every pair that reaches the
   solver fail twice. The grouped audit (a pair cache that never hits)
   must report those failures in the flat plan's order. *)
let grouped_failures_in_flat_order =
  test "grouped audit reports failures in flat-plan order" (fun () ->
      let apps = List.filteri (fun i _ -> i < 12) (Lazy.force audit_pool) in
      let config =
        { Detector.offline_config with Detector.shared_cache = Some (fun _ _ -> failwith "hook") }
      in
      let labels (r : Detector.audit_result) =
        List.map (fun (f : Detector.failure) -> f.Detector.pair) r.Detector.failures
      in
      let ctx = Detector.create config in
      let flat = Detector.audit_pairs ctx (Detector.candidate_pairs ctx apps) in
      let missing =
        { Detector.pair_lookup = (fun _ -> None); pair_store = (fun _ _ -> ()) }
      in
      let grouped =
        Detector.audit_all (Detector.create { config with Detector.pair_cache = Some missing }) apps
      in
      check_bool "some pairs failed" true (flat.Detector.failures <> []);
      Alcotest.(check (list string)) "failure order" (labels flat) (labels grouped))

let tests =
  [
    classifier_matches_reference_on_corpus;
    classifier_matches_reference_on_generated;
    classifier_edge_cases;
    class_table_keys_on_description;
    plan_matches_reference_on_audit_pool;
    plan_matches_reference_on_synth;
    facts_match_direct_derivations;
    device_relation_matches_reference;
    grouped_failures_in_flat_order;
  ]
