(** Per-threat handling decisions (paper §VII).

    Detection only pays off when the user's verdict on each reported
    threat is recorded and enforceable: the paper's handling section
    assigns every category a remedy — priorities for actuator races,
    blocking for goal conflicts, chain breaking for trigger
    interference, and allow/block/confirm for condition interference.
    This module models those decisions and stores them keyed by a
    *stable threat id*, so a decision made at install time still applies
    after re-detection or reordering. *)

module Rule = Homeguard_rules.Rule
module Threat = Homeguard_detector.Threat

type decision =
  | Allow  (** accept the interference; mediation only logs it *)
  | Prioritize of { winner : string }
      (** AR: the winning rule keeps the actuator; the loser's contested
          commands are suppressed (rule keys, [rule_key]) *)
  | Block of { rule : string }
      (** GC (and explicit EC/DC blocks): suppress every command the
          named rule issues *)
  | Break_chain of { hop_budget : int }
      (** CT/SD/LT: suppress an execution once the triggering rule
          appears in its causal provenance more than [hop_budget] times *)
  | Confirm
      (** EC/DC notify-and-confirm: defer the interfering action until
          the user confirms the threat; unconfirmed deferrals expire
          into suppression *)

(* -- stable identities ------------------------------------------------------ *)

let rule_key (app : Rule.smartapp) (r : Rule.t) = app.Rule.name ^ "/" ^ r.Rule.rule_id

let threat_keys (t : Threat.t) =
  (rule_key t.Threat.app1 t.Threat.rule1, rule_key t.Threat.app2 t.Threat.rule2)

(** Stable id: category plus the two rule keys. Directional categories
    keep the interference direction; symmetric ones are canonicalized,
    so the id is independent of detection order. *)
let threat_id (t : Threat.t) =
  let k1, k2 = threat_keys t in
  let cat = Threat.category_to_string t.Threat.category in
  if Threat.is_directional t.Threat.category then Printf.sprintf "%s:%s->%s" cat k1 k2
  else
    let a, b = if String.compare k1 k2 <= 0 then (k1, k2) else (k2, k1) in
    Printf.sprintf "%s:%s<->%s" cat a b

(* -- defaults (paper §VII, one per category) -------------------------------- *)

let default_hop_budget = function Threat.LT -> 2 | _ -> 0

(** The recommended decision presented at install time: AR keeps the
    first-detected rule as winner, GC blocks the second (losing) rule,
    trigger interference breaks the chain immediately (LT is granted two
    loop iterations so legitimate feedback can settle), EC is allowed
    with logging, DC — silently disabling another rule — requires
    confirmation. *)
let default_decision (t : Threat.t) =
  let k1, k2 = threat_keys t in
  match t.Threat.category with
  | Threat.AR -> Prioritize { winner = k1 }
  | Threat.GC -> Block { rule = k2 }
  | (Threat.CT | Threat.SD | Threat.LT) as c -> Break_chain { hop_budget = default_hop_budget c }
  | Threat.EC -> Allow
  | Threat.DC -> Confirm

let describe = function
  | Allow -> "allow (log only)"
  | Prioritize { winner } ->
    Printf.sprintf "prioritize %s (suppress the losing rule's contested commands)" winner
  | Block { rule } -> Printf.sprintf "block rule %s" rule
  | Break_chain { hop_budget } ->
    Printf.sprintf "break the trigger chain beyond %d hop(s)" hop_budget
  | Confirm -> "notify and await confirmation (defer, expire into suppression)"

(* -- the decision store ----------------------------------------------------- *)

type store = { table : (string, decision) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let set_by_id s id d = Hashtbl.replace s.table id d

let explicit s threat = Hashtbl.find_opt s.table (threat_id threat)

(** The decision in force: the user's explicit choice, or the
    per-category default. *)
let decision_for s threat =
  match explicit s threat with Some d -> d | None -> default_decision threat

let decisions s =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [] |> List.sort compare
