(** Differential tests for the planner's fast paths: the allocation-free
    switch classifier against the lowercase-and-substring reference it
    replaced, and the fact-driven plan against [detect_pair] over every
    cross-app rule pair; and the audit pool's exact counters. *)

module Rule = Homeguard_rules.Rule
module Formula = Homeguard_solver.Formula
module Budget = Homeguard_solver.Budget
module Domain = Homeguard_solver.Domain
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Effects = Homeguard_detector.Effects
module Channels = Homeguard_detector.Channels
module Capability = Homeguard_st.Capability
module Env = Homeguard_st.Env_feature
module Term = Homeguard_solver.Term
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

(* Every declared (command, opposite) pair of the capability registry. *)
let declared_opposites =
  List.concat_map
    (fun (cap : Capability.t) ->
      List.filter_map
        (fun (c : Capability.command) ->
          Option.map (fun o -> (c.Capability.cmd_name, o)) c.Capability.opposite)
        cap.Capability.commands)
    Capability.registry

let bits bit l = List.fold_left (fun k x -> k lor bit x) 0 l
let sensed_bits = function Some f -> Channels.feature_bit f | None -> 0

(* A rule's channel keys derived from the rule and its app alone. *)
let direct_keys (app : Rule.smartapp) (r : Rule.t) =
  let actions = r.Rule.actions in
  let effects = List.concat_map (Effects.effects_of_action app) actions in
  let features keep = bits (fun (f, _) -> if keep f then Channels.feature_bit f else 0) effects in
  let cmd = bits (fun (a : Rule.action) -> Channels.name_bit a.Rule.command) actions in
  let opposites =
    bits
      (fun (a : Rule.action) ->
        bits
          (fun (c, o) -> if c = a.Rule.command then Channels.name_bit o else 0)
          declared_opposites)
      actions
  in
  let write (w : Channels.attr_write) =
    match w.Channels.w_target with
    | Rule.Act_location_mode -> Channels.mode_bit
    | Rule.Act_device _ -> Channels.name_bit w.Channels.w_attr
    | _ -> 0
  in
  let cond_var v =
    match String.rindex_opt v '.' with
    | None -> 0
    | Some i ->
      let base = String.sub v 0 i and a = String.sub v (i + 1) (String.length v - i - 1) in
      (if base = "location" then if a = "mode" then Channels.mode_bit else 0
       else Channels.name_bit a)
      lor sensed_bits (Env.of_sensor_attribute a)
  in
  {
    Detector.k_cmd = cmd;
    k_contra = cmd lor opposites;
    k_goal = features (fun f -> f <> Env.Power && f <> Env.Energy);
    k_writes =
      bits write (List.concat_map (Channels.attribute_writes app) actions) lor features (fun _ -> true);
    k_trig =
      (match r.Rule.trigger with
      | Rule.Event { subject = Rule.Device _; attribute; _ } -> Channels.name_bit attribute
      | Rule.Event { subject = Rule.Location; attribute = "mode"; _ } -> Channels.mode_bit
      | _ -> 0)
      lor sensed_bits (Channels.sensed_feature_of_trigger r.Rule.trigger);
    k_cond = bits cond_var (Formula.free_vars (Rule.expanded_predicate r));
  }

(* An app's device inputs: its capability-typed input variables. *)
let device_inputs (app : Rule.smartapp) =
  List.filter_map
    (fun (i : Rule.input_decl) ->
      Option.map (fun _ -> i.Rule.var) (Rule.capability_of_input app i.Rule.var))
    app.Rule.inputs

(* Every fact field equals its direct derivation. *)
let check_facts (apps : Rule.smartapp list) =
  List.iter
    (fun (app : Rule.smartapp) ->
      let f = Detector.app_facts app in
      let name = app.Rule.name in
      check_bool (name ^ " inputs") true
        (List.map (fun d -> d.Detector.di_var) f.Detector.app_inputs = device_inputs app);
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
          check_bool (id ^ " keys") true (rf.Detector.rf_keys = direct_keys app r);
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
      check_facts (Lazy.force audit_pool);
      List.iter
        (fun seed ->
          List.iter
            (fun h -> check_facts (fst (home_setup h)))
            (Corpus.synth ~seed ~n_homes:25))
        synth_seeds)

(* -- channel-key soundness ------------------------------------------------------- *)

(* The six pre-filter checks written from the exported facts, each with
   its device questions answered the way that opens it: any two device
   actions share a target for the race and never do for the goals, and
   a device write reaches every device trigger and condition var with
   its attribute. So each opens wherever the detector's check opens,
   under any [same_device]. *)
let const_param (a : Rule.action) =
  match a.Rule.params with (Term.Int _ | Term.Str _) as t :: _ -> Some t | _ -> None

let ref_race f1 f2 =
  List.exists
    (fun (a1 : Rule.action) ->
      List.exists
        (fun (a2 : Rule.action) ->
          (match (a1.Rule.target, a2.Rule.target) with
          | Rule.Act_device _, Rule.Act_device _ | Rule.Act_location_mode, Rule.Act_location_mode ->
            true
          | _ -> false)
          && (List.mem (a1.Rule.command, a2.Rule.command) declared_opposites
             || a1.Rule.command = a2.Rule.command
                &&
                match (const_param a1, const_param a2) with
                | Some p1, Some p2 -> p1 <> p2
                | _ -> false))
        f2.Detector.rf_rule.Rule.actions)
    f1.Detector.rf_rule.Rule.actions

let ref_goals f1 f2 =
  List.exists
    (fun (a1 : Detector.action_facts) ->
      List.exists
        (fun (a2 : Detector.action_facts) ->
          Effects.conflicting_goals a1.Detector.af_effects a2.Detector.af_effects <> [])
        f2.Detector.rf_actions)
    f1.Detector.rf_actions

let ref_triggers f1 f2 =
  match f2.Detector.rf_rule.Rule.trigger with
  | Rule.Scheduled _ -> false
  | Rule.Event { subject; attribute; _ } ->
    List.exists
      (fun (a : Detector.action_facts) ->
        List.exists
          (fun (w : Channels.attr_write) ->
            match (w.Channels.w_target, subject) with
            | Rule.Act_device _, Rule.Device _ -> w.Channels.w_attr = attribute
            | Rule.Act_location_mode, Rule.Location -> attribute = "mode"
            | _ -> false)
          a.Detector.af_writes
        || List.exists (fun (f, _) -> f2.Detector.rf_sensed = Some f) a.Detector.af_effects)
      f1.Detector.rf_actions

let ref_reaches f1 f2 =
  List.exists
    (fun (a : Detector.action_facts) ->
      List.exists
        (fun (_, base, attr) ->
          List.exists
            (fun (w : Channels.attr_write) ->
              match (w.Channels.w_target, attr) with
              | Rule.Act_device _, Some at -> at = w.Channels.w_attr && base <> "location"
              | Rule.Act_location_mode, Some "mode" -> base = "location"
              | _ -> false)
            a.Detector.af_writes
          || List.exists (fun (f, _) -> Channels.attr_senses f attr) a.Detector.af_effects)
        f2.Detector.rf_cond_vars)
    f1.Detector.rf_actions

let meet k1 k2 = k1 land k2 <> 0

(* Over every ordered rule pair of differently named apps: where a
   reference check opens, the gate field's keys meet. [opened] counts
   each check's openings. *)
let check_keys_sound label opened (apps : Rule.smartapp list) =
  let facts = List.map (fun (a : Rule.smartapp) -> (a, Detector.app_facts a)) apps in
  let misses = ref [] in
  List.iter
    (fun ((a : Rule.smartapp), fa) ->
      List.iter
        (fun ((b : Rule.smartapp), fb) ->
          if a.Rule.name <> b.Rule.name then
            List.iter
              (fun f1 ->
                List.iter
                  (fun f2 ->
                    let k1 = f1.Detector.rf_keys and k2 = f2.Detector.rf_keys in
                    List.iteri
                      (fun i (field, opens, keys_meet) ->
                        if opens then begin
                          opened.(i) <- opened.(i) + 1;
                          if (not keys_meet) && List.length !misses < 5 then
                            misses :=
                              Printf.sprintf "%s: %s %s/%s ~ %s/%s" label field a.Rule.name
                                f1.Detector.rf_rule.Rule.rule_id b.Rule.name
                                f2.Detector.rf_rule.Rule.rule_id
                              :: !misses
                        end)
                      [
                        ("race", ref_race f1 f2, meet k1.Detector.k_contra k2.Detector.k_cmd);
                        ("goals", ref_goals f1 f2, meet k1.Detector.k_goal k2.Detector.k_goal);
                        ("trig_fwd", ref_triggers f1 f2, meet k1.Detector.k_writes k2.Detector.k_trig);
                        ("trig_bwd", ref_triggers f2 f1, meet k2.Detector.k_writes k1.Detector.k_trig);
                        ("fx_fwd", ref_reaches f1 f2, meet k1.Detector.k_writes k2.Detector.k_cond);
                        ("fx_bwd", ref_reaches f2 f1, meet k2.Detector.k_writes k1.Detector.k_cond);
                      ])
                  fb.Detector.app_rules)
              fa.Detector.app_rules)
        facts)
    facts;
  Alcotest.(check (list string)) (label ^ ": keys meet wherever a check opens") []
    (List.rev !misses)

let keys_meet_where_checks_open =
  test "channel keys meet wherever a check can open (pool and 75 synth homes)" (fun () ->
      let opened = Array.make 6 0 in
      check_keys_sound "audit pool" opened (Lazy.force audit_pool);
      List.iter
        (fun seed ->
          List.iter
            (fun (h : Homeguard_corpus.Synth.home) ->
              check_keys_sound
                (Printf.sprintf "seed %d %s" seed h.Homeguard_corpus.Synth.id)
                opened
                (fst (home_setup h)))
            (Corpus.synth ~seed ~n_homes:25))
        synth_seeds;
      (* every check opens somewhere, so no field's test is vacuous *)
      Array.iteri
        (fun i n -> check_bool (Printf.sprintf "check %d opens" i) true (n > 0))
        opened)

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
        (device_inputs app2))
    (device_inputs app1)

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

(* The same-device relation of every ordered pair of differently named
   apps, in both install orders. *)
let pair_relations config (apps : Rule.smartapp list) =
  let ctx = Detector.create config in
  List.concat_map
    (fun (a : Rule.smartapp) ->
      List.filter_map
        (fun (b : Rule.smartapp) ->
          if a.Rule.name = b.Rule.name then None
          else Some (a, b, Detector.device_relation ctx a b))
        apps)
    apps

(* [~full] runs every per-category detector of the plan; [~sweep] (by
   default [full]) asks the matcher directly of every var pair. *)
let check_relation label ~full ?(sweep = full) reference config (apps : Rule.smartapp list) =
  let stats = { asked = 0; bare_matches = 0; mismatches = [] } in
  let config = checked_config stats reference config in
  let relations = pair_relations config apps in
  let distinct = List.length (List.sort_uniq compare (List.map (fun (a : Rule.smartapp) -> a.Rule.name) apps)) in
  check_int (label ^ ": every ordered pair") (distinct * (distinct - 1)) (List.length relations);
  let wrong_unify =
    List.filter_map
      (fun ((a : Rule.smartapp), (b : Rule.smartapp), unify) ->
        if unify = ref_unify reference a b then None
        else Some (Printf.sprintf "device relation %s ~ %s" a.Rule.name b.Rule.name))
      relations
  in
  Alcotest.(check (list string)) (label ^ ": device relation equals the reference") [] wrong_unify;
  (* the detectors' questions: planning's pre-filters always, and every
     per-category detector on a full audit *)
  let ctx = Detector.create config in
  let plan = Detector.candidate_pairs ctx apps in
  if full then ignore (Detector.audit_pairs ctx plan);
  (* and the matcher asked directly, over every var a detector may name:
     the planner's channel keys skip the questions of rule pairs that
     share no channel, bare vars' among them *)
  List.iter
    (fun (a : Rule.smartapp) ->
      List.iter
        (fun (b : Rule.smartapp) ->
          if a.Rule.name <> b.Rule.name then
            let same = Detector.same_device ctx a b in
            List.iter
              (fun v1 -> List.iter (fun v2 -> ignore (same v1 v2)) (asked_vars b))
              (asked_vars a))
        apps)
    (if sweep then apps else []);
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
        check_relation "pool online" ~full:false ~sweep:true (ref_online_same_device recorder)
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
   solver fail twice. The grouped audit (through an empty pair index)
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
      let grouped =
        Detector.audit_all ~index:(Detector.create_pair_index ()) (Detector.create config) apps
      in
      check_bool "some pairs failed" true (flat.Detector.failures <> []);
      Alcotest.(check (list string)) "failure order" (labels flat) (labels grouped))

(* -- install-row reference ------------------------------------------------------ *)

(* The flat install plan the one-row driver replaced: each rule of the
   new app against every rule of each installed app of another name, in
   install order, filtered by [pair_candidate]. *)
let reference_install_plan ctx (installed : Rule.smartapp list) (app : Rule.smartapp) =
  let old_rules =
    List.concat_map
      (fun (a : Rule.smartapp) ->
        if a.Rule.name = app.Rule.name then [] else List.map (fun r -> (a, r)) a.Rule.rules)
      installed
  in
  List.concat_map
    (fun r ->
      List.filter_map
        (fun p2 ->
          let p1 = (app, r) in
          if Detector.pair_candidate ctx p1 p2 then Some (Detector.plan_pair ctx p1 p2)
          else None)
        old_rules)
    app.Rule.rules
  |> Array.of_list

let failure_labels (r : Detector.audit_result) =
  List.map (fun (f : Detector.failure) -> f.Detector.pair) r.Detector.failures

(* [audit_new_app] against the reference plan run by [audit_pairs]:
   uncancelled, and cancelled after a few polls. Returns the number of
   failures seen. *)
let check_install label config installed (app : Rule.smartapp) =
  let cancel_after = function
    | None -> None
    | Some k ->
      let polls = ref 0 in
      Some
        (fun () ->
          incr polls;
          !polls > k)
  in
  List.fold_left
    (fun failures cut ->
      let label = label ^ " " ^ app.Rule.name ^ if cut = None then "" else " cut" in
      let ctx = Detector.create config in
      let expected =
        Detector.audit_pairs ?cancel:(cancel_after cut) ctx
          (reference_install_plan ctx installed app)
      in
      let got =
        Detector.audit_new_app ?cancel:(cancel_after cut) (Detector.create config) installed app
      in
      Alcotest.(check (list string)) (label ^ ": threats")
        (List.map Threat.to_string expected.Detector.threats)
        (List.map Threat.to_string got.Detector.threats);
      check_bool (label ^ ": witnesses and severities") true
        (List.map threat_key expected.Detector.threats = List.map threat_key got.Detector.threats);
      check_int (label ^ ": undecided") expected.Detector.undecided got.Detector.undecided;
      Alcotest.(check (list string)) (label ^ ": failures") (failure_labels expected)
        (failure_labels got);
      check_int (label ^ ": shed") expected.Detector.shed got.Detector.shed;
      failures + List.length got.Detector.failures)
    0 [ None; Some 3 ]

(* Each app of [apps] installed last, against all of [apps]: its own
   name is skipped. *)
let check_installs label config apps =
  List.fold_left (fun acc app -> acc + check_install label config apps app) 0 apps

let install_row_matches_reference =
  test "install row = flat install plan (pool, synth homes, reused name, failures)" (fun () ->
      let pool = Lazy.force audit_pool in
      ignore (check_installs "pool" Detector.offline_config pool : int);
      List.iter
        (fun seed ->
          List.iter
            (fun (h : Homeguard_corpus.Synth.home) ->
              let apps, config = home_setup h in
              let label = Printf.sprintf "seed %d %s" seed h.Homeguard_corpus.Synth.id in
              ignore (check_installs (label ^ " offline") Detector.offline_config apps : int);
              ignore (check_installs (label ^ " recorded") config apps : int))
            (Corpus.synth ~seed ~n_homes:10))
        synth_seeds;
      (* a reinstall under a reused name: another app's source extracted
         under an installed app's name replaces it in the audit *)
      let entries = Array.of_list Corpus.audit_apps in
      List.iter
        (fun (i, j) ->
          let reused = entries.(i).App_entry.name in
          let app = extract ~name:reused entries.(j).App_entry.source in
          ignore (check_install ("reused name " ^ reused) Detector.offline_config pool app : int))
        [ (0, 1); (5, 40); (17, 3); (60, 61) ];
      (* every pair that reaches the solver fails twice *)
      let raising =
        { Detector.offline_config with Detector.shared_cache = Some (fun _ _ -> failwith "hook") }
      in
      let first_12 = List.filteri (fun i _ -> i < 12) pool in
      let failures = check_installs "raising hook" raising first_12 in
      check_bool "some pairs failed" true (failures > 0))

(* -- audit pool counters ------------------------------------------------------- *)

(* A threat with its witness: the bindings in model order, sentinel
   bindings included, or "-" when there is none. The threat interpreter
   shows these bindings, and [Threat.to_string] leaves them out. *)
let witness_line (t : Threat.t) =
  let w =
    match t.Threat.witness with
    | None -> "-"
    | Some m ->
      String.concat ";" (List.map (fun (v, x) -> v ^ "=" ^ Domain.value_to_string x) m)
  in
  Threat.to_string t ^ "\t" ^ w

let witness_digest threats =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map witness_line threats)))

(* -- synthetic-home pins ---------------------------------------------------------- *)

(* Every threat line with its witness for synthetic homes under one
   device relation: each home's full audit, then its apps installed one
   by one, each install row against the apps before it. [home_setup]'s
   recorded config is the online relation; the mixed one matches
   devices offline but keeps the recorded values. *)
let synth_lines relation =
  List.concat_map
    (fun (h : Homeguard_corpus.Synth.home) ->
      let apps, online = home_setup h in
      let config =
        match relation with
        | `Offline -> Detector.offline_config
        | `Mixed ->
          { Detector.offline_config with Detector.app_constraints = online.Detector.app_constraints }
        | `Online -> online
      in
      let full = (Detector.audit_all (Detector.create config) apps).Detector.threats in
      let rows =
        List.concat
          (List.mapi
             (fun k app ->
               let before = List.filteri (fun i _ -> i < k) apps in
               (Detector.audit_new_app (Detector.create config) before app).Detector.threats)
             apps)
      in
      List.map witness_line (full @ rows))
    (Corpus.synth ~seed:29 ~n_homes:400)

let synth_pins =
  test "synth homes: threat and witness digests (offline, mixed, online; audits and installs)"
    (fun () ->
      List.iter
        (fun (label, relation, count, digest) ->
          let lines = synth_lines relation in
          check_int (label ^ ": threat lines") count (List.length lines);
          check_string (label ^ ": digest") digest
            (Digest.to_hex (Digest.string (String.concat "\n" lines))))
        [
          ("offline", `Offline, 1521, "10a3a6a42cc3ebd61e555da1fcd206c8");
          ("mixed", `Mixed, 1521, "710b05c3ac7ec8759291d97a0b9e1aa3");
          ("online", `Online, 926, "499c5589cfbb5f018e3c26182758fc5a");
        ])

(* -- planned cells against on-the-fly detection ------------------------------- *)

(* Each planned pair run alone through [audit_pairs] on a fresh ctx,
   against [detect_pair] of its two rules on another fresh ctx, which
   builds the cell context on the fly: the same threats, witness bytes
   and severities, from the same number of solves. Returns the number
   of planned pairs. *)
let check_planned_cells label config apps =
  let plan = Detector.candidate_pairs (Detector.create config) apps in
  let mismatches = ref [] in
  Array.iteri
    (fun k pl ->
      let p1, p2 = Detector.planned_rules pl in
      let planned_ctx = Detector.create config and fresh_ctx = Detector.create config in
      let planned = (Detector.audit_pairs planned_ctx [| pl |]).Detector.threats in
      let fresh = Detector.detect_pair fresh_ctx p1 p2 in
      if
        List.map witness_line planned <> List.map witness_line fresh
        || List.map threat_key planned <> List.map threat_key fresh
        || planned_ctx.Detector.solver_calls <> fresh_ctx.Detector.solver_calls
      then mismatches := Printf.sprintf "%s: pair %d" label k :: !mismatches)
    plan;
  Alcotest.(check (list string)) (label ^ ": planned = on the fly") [] (List.rev !mismatches);
  Array.length plan

let planned_cells_match_on_the_fly =
  test "planned cells = detect_pair on a fresh ctx (pool and synth, reuse on and off)"
    (fun () ->
      List.iter
        (fun reuse ->
          let with_reuse config = { config with Detector.reuse } in
          let label = if reuse then "reuse" else "no reuse" in
          check_int (label ^ ": audit pool pairs") 2868
            (check_planned_cells ("pool " ^ label)
               (with_reuse Detector.offline_config)
               (Lazy.force audit_pool));
          let pairs = ref 0 in
          List.iter
            (fun seed ->
              List.iter
                (fun (h : Homeguard_corpus.Synth.home) ->
                  let apps, config = home_setup h in
                  let label =
                    Printf.sprintf "seed %d %s %s" seed h.Homeguard_corpus.Synth.id label
                  in
                  pairs :=
                    !pairs
                    + check_planned_cells (label ^ " offline")
                        (with_reuse Detector.offline_config) apps
                    + check_planned_cells (label ^ " recorded") (with_reuse config) apps)
                (Corpus.synth ~seed ~n_homes:25))
            synth_seeds;
          check_bool (label ^ ": synth pairs planned") true (!pairs > 0))
        [ true; false ])

(* The 125-app audit's exact counters. Any drift in the plan, the
   detector or the solver-result reuse shows up here first, and any
   drift in a witness changes the digest. *)
let audit_pool_counters =
  test "audit pool: 2868 pairs, 3845 threats, 3917 solves (4247 unshared), all decided"
    (fun () ->
      let apps = Lazy.force audit_pool in
      check_int "candidate pairs" 2868
        (Array.length (Detector.candidate_pairs (Detector.create Detector.offline_config) apps));
      let run config jobs =
        let ctx = Detector.create config in
        let threats = Detector.detect_all ~jobs ctx apps in
        (threats, ctx)
      in
      let t1, ctx1 = run Detector.offline_config 1 in
      let t2, ctx2 = run Detector.offline_config 2 in
      check_int "threats" 3845 (List.length t1);
      check_int "threats with a witness" 3307
        (List.length (List.filter (fun (t : Threat.t) -> t.Threat.witness <> None) t1));
      Alcotest.(check (list string))
        "threat lines at jobs 1 and 2" (List.map Threat.to_string t1)
        (List.map Threat.to_string t2);
      check_string "witness digest at jobs 1" "a8c5e0c5ced0819c78d2ed1cf086bd2a"
        (witness_digest t1);
      check_string "witness digest at jobs 2" "a8c5e0c5ced0819c78d2ed1cf086bd2a"
        (witness_digest t2);
      check_int "solver calls" 3917 ctx1.Detector.solver_calls;
      check_int "solver calls at jobs 2" 3917 ctx2.Detector.solver_calls;
      (* the verdict memo answers every repeat of a decided query; how
         many repeats a ctx sees depends on the batching *)
      check_int "memo answers at jobs 1" 3177 ctx1.Detector.memo_answers;
      let unshared = snd (run { Detector.offline_config with Detector.reuse = false } 1) in
      check_int "solver calls without reuse" 4247 unshared.Detector.solver_calls;
      check_int "no memo answers without reuse" 0 unshared.Detector.memo_answers;
      List.iter
        (fun (label, budget) ->
          List.iter
            (fun jobs ->
              let ctx = Detector.create { Detector.offline_config with Detector.budget } in
              let r = Detector.audit_all ~jobs ctx apps in
              let label = Printf.sprintf "%s budget, jobs=%d" label jobs in
              check_int (label ^ ": undecided") 0 r.Detector.undecided;
              check_int (label ^ ": failed") 0 (List.length r.Detector.failures))
            [ 1; 2 ])
        [ ("unlimited", Budget.unlimited_spec); ("default", Budget.default_spec) ];
      (* paper Fig 9's A1 pair: AR and CT ask the same conditions-overlap
         question, which reuse answers once *)
      let a1_solves reuse =
        let first name =
          let a = extract_corpus name in
          (a, List.hd a.Rule.rules)
        in
        let ctx = Detector.create { Detector.offline_config with Detector.reuse } in
        ignore (Detector.detect_pair ctx (first "ItsTooHot") (first "EnergySaver"));
        ctx.Detector.solver_calls
      in
      check_int "A1 solves with reuse" 1 (a1_solves true);
      check_int "A1 solves without reuse" 2 (a1_solves false))

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
    install_row_matches_reference;
    audit_pool_counters;
    planned_cells_match_on_the_fly;
    synth_pins;
    keys_meet_where_checks_open;
  ]
