(** Chained-threat (Allowed list) unit tests. *)

module Chain = Homeguard_detector.Chain
module Threat = Homeguard_detector.Threat
module Rule = Homeguard_rules.Rule
module Formula = Homeguard_solver.Formula
module Install_flow = Homeguard_frontend.Install_flow
open Helpers

let mk_rule app id =
  {
    Rule.app_name = app;
    rule_id = id;
    trigger = Rule.Event { subject = Rule.Location; attribute = "mode"; constraint_ = Formula.True };
    condition = { Rule.data = []; predicate = Formula.True };
    actions = [];
  }

let mk_app name = { Rule.name; description = ""; inputs = []; rules = []; uses_web_services = false }

let threat cat a1 r1 a2 r2 =
  Threat.make cat (mk_app a1, mk_rule a1 r1) (mk_app a2, mk_rule a2 r2) "test edge"

let two_hop_chain =
  test "a new CT edge extends through an allowed CT edge" (fun () ->
      let kept = [ threat Threat.CT "B" "B#1" "C" "C#1" ] in
      let chains = Chain.find_chains kept [ threat Threat.CT "A" "A#1" "B" "B#1" ] in
      check_bool "A->B->C found" true
        (List.exists (fun c -> c.Chain.rules = [ "A#1"; "B#1"; "C#1" ]) chains))

let three_hop_chain =
  test "chains extend multiple allowed hops" (fun () ->
      let kept = [ threat Threat.CT "B" "B#1" "C" "C#1"; threat Threat.EC "C" "C#1" "D" "D#1" ] in
      let chains = Chain.find_chains kept [ threat Threat.CT "A" "A#1" "B" "B#1" ] in
      check_bool "4-rule chain found" true
        (List.exists (fun c -> c.Chain.rules = [ "A#1"; "B#1"; "C#1"; "D#1" ]) chains))

let non_propagating_edges_ignored =
  test "AR/DC edges do not propagate chains" (fun () ->
      let kept = [ threat Threat.AR "B" "B#1" "C" "C#1" ] in
      let chains = Chain.find_chains kept [ threat Threat.CT "A" "A#1" "B" "B#1" ] in
      check_int "no chains" 0 (List.length chains))

let cycles_terminate =
  test "cyclic allowed edges do not loop forever" (fun () ->
      let kept = [ threat Threat.CT "B" "B#1" "C" "C#1"; threat Threat.CT "C" "C#1" "B" "B#1" ] in
      let chains = Chain.find_chains kept [ threat Threat.CT "A" "A#1" "B" "B#1" ] in
      check_bool "terminates with chains" true (chains <> []);
      List.iter
        (fun c ->
          let rs = c.Chain.rules in
          check_int "no repeated rule" (List.length rs) (List.length (List.sort_uniq compare rs)))
        chains)

let no_allowed_no_chain =
  test "a single new edge alone forms no chain" (fun () ->
      let chains = Chain.find_chains [] [ threat Threat.CT "A" "A#1" "B" "B#1" ] in
      check_int "none" 0 (List.length chains))

let chain_rendering =
  test "chains render readably" (fun () ->
      let c = { Chain.rules = [ "A#1"; "B#1"; "C#1" ]; categories = [ Threat.CT; Threat.CT ] } in
      check_string "format" "A#1 -> B#1 -> C#1 [CT,CT]" (Chain.chain_to_string c))

(* -- indexed search vs the linear scan ----------------------------------------- *)

type edge = { from_rule : string; to_rule : string; category : Threat.category }

(* The search as it was before the successor index, over its own edge
   list: each kept threat as the Allowed list once stored it (both
   directions for a non-directional category), and every step filters
   the whole list. *)
let ref_find_chains (kept : Threat.t list) (new_threats : Threat.t list) =
  let edge (th : Threat.t) =
    {
      from_rule = th.Threat.rule1.Rule.rule_id;
      to_rule = th.Threat.rule2.Rule.rule_id;
      category = th.Threat.category;
    }
  in
  let kept_edges (th : Threat.t) =
    let e = edge th in
    if Threat.is_directional th.Threat.category then [ e ]
    else [ e; { e with from_rule = e.to_rule; to_rule = e.from_rule } ]
  in
  let all_edges = List.concat_map kept_edges kept @ List.map edge new_threats in
  let propagating = function Threat.CT | Threat.EC -> true | _ -> false in
  let successors rule_id =
    List.filter (fun e -> e.from_rule = rule_id && propagating e.category) all_edges
  in
  let max_len = 6 in
  let rec extend visited cats rule_id =
    let chains_here =
      if List.length visited >= 3 then
        [ { Chain.rules = List.rev visited; categories = List.rev cats } ]
      else []
    in
    if List.length visited >= max_len then chains_here
    else
      chains_here
      @ List.concat_map
          (fun e ->
            if List.mem e.to_rule visited then []
            else extend (e.to_rule :: visited) (e.category :: cats) e.to_rule)
          (successors rule_id)
  in
  List.concat_map
    (fun (th : Threat.t) ->
      if not (propagating th.Threat.category) then []
      else
        let r1 = th.Threat.rule1.Rule.rule_id and r2 = th.Threat.rule2.Rule.rule_id in
        extend [ r2; r1 ] [ th.Threat.category ] r2)
    new_threats
  |> List.sort_uniq compare

(* A random threat over five apps of two rules each, so generated
   graphs are dense: duplicate edges, cycles, self-loops and every
   category, directional or not. *)
let random_threat st =
  let app () = String.make 1 (Char.chr (Char.code 'A' + Random.State.int st 5)) in
  let rule a = Printf.sprintf "%s#%d" a (1 + Random.State.int st 2) in
  let a1 = app () and a2 = app () in
  let cat = List.nth Threat.all_categories (Random.State.int st 7) in
  threat cat a1 (rule a1) a2 (rule a2)

let indexed_search_matches_linear_scan =
  test "indexed chain search = linear-scan reference on generated Allowed graphs" (fun () ->
      let longest = ref 0 and uninstalled = ref 0 and undirected = ref 0 and chains = ref 0 in
      for seed = 1 to 400 do
        let st = Random.State.make [| 0xc4a1; seed |] in
        let kept = ref [] in
        for _ = 1 to 1 + Random.State.int st 6 do
          if Random.State.int st 4 = 0 then begin
            (* uninstall one app: its kept threats go *)
            incr uninstalled;
            let app = String.make 1 (Char.chr (Char.code 'A' + Random.State.int st 5)) in
            kept :=
              List.filter
                (fun (th : Threat.t) ->
                  th.Threat.app1.Rule.name <> app && th.Threat.app2.Rule.name <> app)
                !kept
          end
          else begin
            let batch = List.init (Random.State.int st 8) (fun _ -> random_threat st) in
            List.iter
              (fun (th : Threat.t) ->
                if not (Threat.is_directional th.Threat.category) then incr undirected)
              batch;
            kept := List.rev_append batch !kept
          end
        done;
        let fresh = List.init (1 + Random.State.int st 4) (fun _ -> random_threat st) in
        let got = Chain.find_chains !kept fresh in
        let expected = ref_find_chains !kept fresh in
        check_bool (Printf.sprintf "seed %d: chains equal" seed) true (got = expected);
        chains := !chains + List.length got;
        List.iter (fun c -> longest := max !longest (List.length c.Chain.rules)) got
      done;
      check_bool "some chains found" true (!chains > 0);
      check_int "paths reach max_len" 6 !longest;
      check_bool "graphs after an uninstall" true (!uninstalled > 0);
      check_bool "non-directional threats allowed" true (!undirected > 0))

(* Generated chains over a tiny alphabet — rule ids that are prefixes
   of each other, lists that are prefixes of each other, equal rule
   lists under different categories, and exact duplicates. *)
let compare_chain_is_polymorphic_order =
  test "compare_chain sorts exactly as polymorphic compare" (fun () ->
      let ids = [| ""; "A"; "A#1"; "A#10"; "A#2"; "B#1"; "a#1" |] in
      let shared = ref 0 and recategorized = ref 0 in
      for seed = 1 to 300 do
        let st = Random.State.make [| 0xc0de; seed |] in
        let random_list n f = List.init (Random.State.int st n) (fun _ -> f ()) in
        let random_cats () =
          random_list 4 (fun () -> List.nth Threat.all_categories (Random.State.int st 7))
        in
        let base =
          List.init (1 + Random.State.int st 12) (fun _ ->
              {
                Chain.rules = random_list 6 (fun () -> ids.(Random.State.int st (Array.length ids)));
                categories = random_cats ();
              })
        in
        let variants =
          List.concat_map
            (fun (c : Chain.chain) ->
              match Random.State.int st 4 with
              | 0 -> [ c; c ]
              | 1 ->
                incr recategorized;
                [ c; { c with Chain.categories = random_cats () } ]
              | 2 -> (
                match List.rev c.Chain.rules with
                | _ :: rest ->
                  incr shared;
                  [ c; { c with Chain.rules = List.rev rest } ]
                | [] -> [ c ])
              | _ -> [ c ])
            base
        in
        let chains = variants @ List.rev base in
        check_bool (Printf.sprintf "seed %d: same order" seed) true
          (List.sort_uniq Chain.compare_chain chains = List.sort_uniq compare chains);
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check_int "same sign" (compare (compare a b) 0)
                  (compare (Chain.compare_chain a b) 0))
              chains)
          base
      done;
      check_bool "lists sharing a prefix generated" true (!shared > 0);
      check_bool "recategorized lists generated" true (!recategorized > 0))

(* Rule ids are ["<app>#<n>"], and an app's name may itself hold a
   '#': uninstalling [Foo] must not touch the kept threats of
   [Foo#Bar], whose rule ids start with ["Foo#"] too. *)
let uninstall_spares_app_sharing_prefix =
  test "uninstalling Foo keeps the chains through an app named Foo#Bar" (fun () ->
      let corpus ~name app =
        match Homeguard_corpus.Corpus.find app with
        | Some e -> extract ~name e.Homeguard_corpus.App_entry.source
        | None -> Alcotest.failf "corpus app not found: %s" app
      in
      let flow = Install_flow.create () in
      let keep app =
        ignore (Install_flow.propose flow app);
        Install_flow.decide flow Install_flow.Keep
      in
      let chains () =
        let report = Install_flow.propose flow (extract_corpus "CurlingIron") in
        Install_flow.decide flow Install_flow.Reject;
        report.Install_flow.chains
      in
      keep (corpus ~name:"Foo#Bar" "MakeItSo");
      keep (extract_corpus "SwitchChangesMode");
      let before = chains () in
      check_int "chains through Foo#Bar" 8 (List.length before);
      keep (corpus ~name:"Foo" "ComfortTV");
      Install_flow.uninstall flow "Foo";
      check_bool "uninstalling Foo leaves them" true (chains () = before))

let tests =
  [
    two_hop_chain;
    three_hop_chain;
    non_propagating_edges_ignored;
    cycles_terminate;
    no_allowed_no_chain;
    chain_rendering;
    indexed_search_matches_linear_scan;
    compare_chain_is_polymorphic_order;
    uninstall_spares_app_sharing_prefix;
  ]
