(** Differential tests of the per-home pair index
    ({!Detector.pair_index}): on seeded histories of corpus apps in a
    home whose pair cache comes from {!Vcache.configure}, every
    [Home.audit] after every event must equal a fresh uncached
    [Detector.audit_all] over the same apps — threat lines, witnesses,
    undecided count, failures and shed. The histories install, reinstall
    from the same source (a fresh extraction), reinstall a changed app
    under a reused name, deliver value and device-only configurations,
    uninstall, and quarantine and unquarantine. The never-reuse cases
    check that a cancelled audit leaves the index as it was and that a
    group which crashed or held an [Undecided] threat is re-detected on
    the next audit. *)

module Home = Homeguard_store.Home
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Vcache = Homeguard_vcache.Vcache
module Corpus = Homeguard_corpus.Corpus
module App_entry = Homeguard_corpus.App_entry
module Extract = Homeguard_symexec.Extract
module Recorder = Homeguard_config.Recorder
module Rule = Homeguard_rules.Rule
module Term = Homeguard_solver.Term
module Budget = Homeguard_solver.Budget
module Fault = Homeguard_solver.Fault

let test name f = Alcotest.test_case name `Quick f
let check_bool m = Alcotest.(check bool) m
let check_int m = Alcotest.(check int) m

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hg_index_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let remove_dir dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* The history's app pool: corpus apps that share devices and
   environment features, so a home of a few of them holds threats. *)
let pool =
  lazy
    (List.map
       (fun name -> Option.get (Corpus.find name))
       [
         "ComfortTV"; "ColdDefender"; "ItsTooHot"; "EnergySaver"; "LetThereBeDark";
         "UndeadEarlyWarning"; "CurlingIron"; "LightsOffWhenClosed"; "VirtualThermostat";
         "ComfortWindow";
       ])

let extract ~name source = (Extract.extract_source ~name source).Extract.app

(* A home with the L1 pair tier of a fresh verdict cache. [layer]
   wraps the home's detector config before the cache is attached. *)
let with_home ?(layer = Fun.id) mode f =
  let cache_dir = fresh_dir () and dir = fresh_dir () in
  let st = Vcache.open_store ~fsync:false ~dir:cache_dir () in
  let h = Vcache.attach st ~owner:"index-test" in
  let home, _ =
    Home.open_ ~fsync:false ~mode ~configure:(fun c -> Vcache.configure h (layer c)) ~dir ()
  in
  Fun.protect
    ~finally:(fun () ->
      Home.close home;
      Vcache.close_store st;
      remove_dir dir;
      remove_dir cache_dir)
    (fun () -> f home h)

(* L1 lookups so far: every app pair the index did not serve asks L1. *)
let lookups h =
  let c = Vcache.counters h in
  c.Vcache.pair_hits + c.Vcache.pair_misses

let auditable home =
  List.filter
    (fun (a : Rule.smartapp) -> not (Home.is_quarantined home a.Rule.name))
    (Home.installed_apps home)

(* The cache-free reference: the flat plan over the home's own config. *)
let reference home =
  let config =
    { (Home.config home) with Detector.pair_cache = None; Detector.shared_cache = None }
  in
  Detector.audit_all (Detector.create config) (auditable home)

let check_equal label (expected : Detector.audit_result) (got : Detector.audit_result) =
  let lines r = List.map Threat.to_string r.Detector.threats in
  let witnesses r = List.map (fun t -> t.Threat.witness) r.Detector.threats in
  let failures r = List.map (fun (f : Detector.failure) -> f.Detector.pair) r.Detector.failures in
  Alcotest.(check (list string)) (label ^ ": threats") (lines expected) (lines got);
  check_bool (label ^ ": witnesses") true (witnesses expected = witnesses got);
  check_int (label ^ ": undecided") expected.Detector.undecided got.Detector.undecided;
  Alcotest.(check (list string)) (label ^ ": failures") (failures expected) (failures got);
  check_int (label ^ ": shed") expected.Detector.shed got.Detector.shed

(* App pairs a grouped audit of these apps visits. *)
let pair_count apps =
  let names = List.sort_uniq compare (List.map (fun (a : Rule.smartapp) -> a.Rule.name) apps) in
  let n = List.length names in
  n * (n - 1) / 2

let device_ids = [| String.make 32 'a'; String.make 32 'b'; String.make 32 'c' |]
let small_values = [| 5; 30; 60; 90 |]

(* A configuration for [app] from its own inputs: each capability input
   bound to one of three device ids (so inputs of different apps often
   share a device), every other input to a small number unless
   [~values:false]. *)
let config_uri ?(values = true) st (app : Rule.smartapp) =
  let b = Buffer.create 128 in
  Buffer.add_string b ("http://my.com/appname:" ^ app.Rule.name ^ "/");
  List.iter
    (fun (i : Rule.input_decl) ->
      match Rule.capability_of_input app i.Rule.var with
      | Some _ ->
        Buffer.add_string b
          (i.Rule.var ^ ":" ^ device_ids.(Random.State.int st (Array.length device_ids)) ^ "/")
      | None ->
        if values then
          Buffer.add_string b
            (Printf.sprintf "%s:%d/" i.Rule.var
               small_values.(Random.State.int st (Array.length small_values))))
    app.Rule.inputs;
  Buffer.contents b

(* Values bound outside the recorder, for the [overlay] history: the
   index must notice changed bindings without any invalidation. *)
let overlay_values st (app : Rule.smartapp) =
  List.filter_map
    (fun (i : Rule.input_decl) ->
      match Rule.capability_of_input app i.Rule.var with
      | Some _ -> None
      | None ->
        Some
          ( i.Rule.var,
            Term.Int small_values.(Random.State.int st (Array.length small_values)) ))
    app.Rule.inputs

type history = {
  st : Random.State.t;
  home : Home.t;
  sources : (string, string) Hashtbl.t;  (** installed name -> its source *)
  overlay : (string, (string * Term.t) list) Hashtbl.t option;
  mutable seq : int;
}

let pick st = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int st (List.length l)))

let install hs ~name source =
  Hashtbl.replace hs.sources name source;
  ignore (Home.install_app hs.home (extract ~name source) : Home.install_outcome)

let deliver hs uri =
  hs.seq <- hs.seq + 1;
  ignore (Home.deliver hs.home ~seq:hs.seq uri : Home.delivery)

(* One random event; returns its label, or [None] when the drawn event
   does not apply to the home as it stands. *)
let step hs =
  let st = hs.st and home = hs.home in
  let installed = Home.installed_apps home in
  let pool = Lazy.force pool in
  let absent =
    List.filter
      (fun (e : App_entry.t) ->
        not (List.exists (fun (a : Rule.smartapp) -> a.Rule.name = e.App_entry.name) installed))
      pool
  in
  let some_installed f =
    Option.map (fun (a : Rule.smartapp) -> f a) (pick st installed)
  in
  match Random.State.int st 9 with
  | 0 | 1 ->
    Option.map
      (fun (e : App_entry.t) ->
        install hs ~name:e.App_entry.name e.App_entry.source;
        "install " ^ e.App_entry.name)
      (pick st absent)
  | 2 ->
    some_installed (fun a ->
        (* same source, fresh extraction: a new value equal to the old *)
        let name = a.Rule.name in
        ignore (Home.uninstall home name : bool);
        install hs ~name (Hashtbl.find hs.sources name);
        "reinstall " ^ name)
  | 3 ->
    some_installed (fun a ->
        let name = a.Rule.name in
        let source = Hashtbl.find hs.sources name in
        let other =
          Option.get
            (pick st (List.filter (fun (e : App_entry.t) -> e.App_entry.source <> source) pool))
        in
        install hs ~name other.App_entry.source;
        Printf.sprintf "reinstall %s from %s's source" name other.App_entry.name)
  | 4 ->
    some_installed (fun a ->
        deliver hs (config_uri st a);
        "configure " ^ a.Rule.name)
  | 5 ->
    (* device ids only, to an app without values: its bindings stay
       equal, only its device relation can change *)
    Option.map
      (fun (a : Rule.smartapp) ->
        deliver hs (config_uri ~values:false st a);
        "rebind devices of " ^ a.Rule.name)
      (pick st
         (List.filter
            (fun a -> Recorder.app_constraints (Home.recorder home) a = [])
            installed))
  | 6 ->
    some_installed (fun a ->
        ignore (Home.uninstall home a.Rule.name : bool);
        Hashtbl.remove hs.sources a.Rule.name;
        "uninstall " ^ a.Rule.name)
  | 7 ->
    some_installed (fun a ->
        let name = a.Rule.name in
        if Home.is_quarantined home name then begin
          ignore (Home.unquarantine home name : bool);
          "unquarantine " ^ name
        end
        else begin
          Home.quarantine home ~app:name ~reason:"test";
          "quarantine " ^ name
        end)
  | _ -> (
    match hs.overlay with
    | None -> None
    | Some overlay ->
      some_installed (fun a ->
          Hashtbl.replace overlay a.Rule.name (overlay_values st a);
          "rebind values of " ^ a.Rule.name ^ " outside the recorder"))

let run_history ~label ~mode ~overlay ~seed ~events =
  let overlay = if overlay then Some (Hashtbl.create 8) else None in
  let layer (c : Detector.config) =
    match overlay with
    | None -> c
    | Some tbl ->
      {
        c with
        Detector.app_constraints =
          (fun app ->
            c.Detector.app_constraints app
            @ Option.value ~default:[] (Hashtbl.find_opt tbl app.Rule.name));
      }
  in
  with_home ~layer mode (fun home h ->
      let hs =
        {
          st = Random.State.make [| 0x1d8; seed |];
          home;
          sources = Hashtbl.create 8;
          overlay;
          seq = 0;
        }
      in
      let pairs = ref 0 and asked = ref 0 and threats = ref 0 and done_ = ref 0 in
      while !done_ < events do
        match step hs with
        | None -> ()
        | Some what ->
          incr done_;
          let before = lookups h in
          let got = Home.audit home in
          asked := !asked + (lookups h - before);
          pairs := !pairs + pair_count (auditable home);
          threats := !threats + List.length got.Detector.threats;
          check_equal
            (Printf.sprintf "%s seed %d event %d (%s)" label seed !done_ what)
            (reference home) got
      done;
      (!pairs, !asked, !threats))

let index_equals_reference_on_histories =
  test "per-home pair index: every re-audit of a generated history = uncached full audit"
    (fun () ->
      List.iter
        (fun (label, mode, overlay) ->
          let pairs = ref 0 and asked = ref 0 and threats = ref 0 in
          for seed = 1 to 4 do
            let p, a, t = run_history ~label ~mode ~overlay ~seed ~events:40 in
            pairs := !pairs + p;
            asked := !asked + a;
            threats := !threats + t
          done;
          check_bool (label ^ ": histories hold threats") true (!threats > 0);
          check_bool (label ^ ": the index served pairs") true (!asked < !pairs))
        [
          ("mixed", Home.Mixed, false);
          ("online", Home.Online, false);
          ("mixed with values outside the recorder", Home.Mixed, true);
        ])

(* A home of every pool app, each configured. *)
let populate ?(seed = 7) home =
  let st = Random.State.make [| seed |] in
  List.iteri
    (fun i (e : App_entry.t) ->
      let app = extract ~name:e.App_entry.name e.App_entry.source in
      ignore (Home.install_app home app : Home.install_outcome);
      ignore (Home.deliver home ~seq:(i + 1) (config_uri st app) : Home.delivery))
    (Lazy.force pool);
  List.length (Lazy.force pool)

let cancelled_audit_leaves_index =
  test "a cancelled re-audit leaves the pair index as it was" (fun () ->
      with_home Home.Mixed (fun home h ->
          let n = populate home in
          ignore (Home.audit home : Detector.audit_result);
          let first = List.hd (Home.installed_apps home) in
          (* invalidates [first]'s n - 1 pairs *)
          ignore
            (Home.deliver home ~seq:(n + 1) (config_uri (Random.State.make [| 1 |]) first)
              : Home.delivery);
          let polls = ref 0 in
          let cut = Home.audit ~cancel:(fun () -> incr polls; !polls > 3) home in
          check_bool "the audit was cut short" true (cut.Detector.shed > 0);
          let before = lookups h in
          let full = Home.audit home in
          check_int "only the configured app's pairs leave the index" (n - 1)
            (lookups h - before);
          check_equal "after the cancelled audit" (reference home) full))

(* Distinct app pairs, orientation ignored. *)
let groups pairs =
  List.length (List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) pairs))

let crashed_group_redetected =
  test "a group that crashed twice is re-detected, not served from the index" (fun () ->
      with_home Home.Mixed (fun home h ->
          ignore (populate home : int);
          let crashed =
            Fun.protect ~finally:Fault.disarm (fun () ->
                Fault.arm ~seed:1 ~rate_per_thousand:1000 Fault.Raise;
                Home.audit home)
          in
          let failed = List.map (fun (f : Detector.failure) -> f.Detector.apps) crashed.Detector.failures in
          check_bool "some pairs crashed twice" true (failed <> []);
          let before = lookups h in
          let healed = Home.audit home in
          check_int "every crashed group is re-detected" (groups failed) (lookups h - before);
          check_int "no failures left" 0 (List.length healed.Detector.failures);
          check_equal "after the crash" (reference home) healed))

let undecided_group_redetected =
  test "a group holding an Undecided threat is re-detected, not served from the index" (fun () ->
      let tiny (c : Detector.config) =
        {
          c with
          Detector.budget = { Budget.unlimited_spec with Budget.prop_steps = Some 1 };
          Detector.escalate = false;
        }
      in
      with_home ~layer:tiny Home.Mixed (fun home h ->
          ignore (populate home : int);
          let first = Home.audit home in
          let undecided =
            List.filter_map
              (fun (t : Threat.t) ->
                if Threat.is_undecided t.Threat.severity then
                  Some (t.Threat.app1.Rule.name, t.Threat.app2.Rule.name)
                else None)
              first.Detector.threats
          in
          check_bool "the tiny budget leaves threats undecided" true (undecided <> []);
          let before = lookups h in
          let again = Home.audit home in
          check_int "every undecided group is re-detected" (groups undecided)
            (lookups h - before);
          check_equal "re-audit under the tiny budget" (reference home) again))

let tests =
  [
    index_equals_reference_on_histories;
    cancelled_audit_leaves_index;
    crashed_group_redetected;
    undecided_group_redetected;
  ]
