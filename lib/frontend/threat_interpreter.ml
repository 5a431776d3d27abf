(** Threat interpreter: explain detected CAI threats to the homeowner
    (paper §IV-C), including the concrete situation the solver found. *)

module Rule = Homeguard_rules.Rule
module Threat = Homeguard_detector.Threat
module Domain = Homeguard_solver.Domain

(* Hide solver-internal symbols and render app-qualified names. *)
let describe_witness model =
  let visible =
    List.filter_map
      (fun (var, value) ->
        let name = Homeguard_detector.Detector.unqualify var in
        let internal =
          (String.length name >= 4 && String.sub name 0 4 = "sym_")
          || (match value with
             | Domain.Str s -> s = Homeguard_solver.Store.other_value
             | Domain.Int _ -> false)
        in
        if internal then None
        else Some (Printf.sprintf "%s = %s" name (Domain.value_to_string value)))
      model
  in
  match visible with
  | [] -> None
  | bindings -> Some (String.concat ", " bindings)

let risk_note = function
  | Threat.AR ->
    "The final device state is unpredictable; the device may be damaged or left in an unsafe state."
  | Threat.GC -> "The two automations work against each other and waste energy or comfort."
  | Threat.CT ->
    "A covert rule is formed: installing this app makes something happen that neither app describes alone."
  | Threat.SD -> "The triggered rule immediately undoes this rule's action."
  | Threat.LT ->
    "The rules can trigger each other in a loop (e.g. flashing lights), risking device damage."
  | Threat.EC -> "This app can silently arm another rule's condition."
  | Threat.DC ->
    "This app can silently disarm another rule's condition (e.g. disabling a security check)."

(** Multi-line, user-facing explanation of one threat. An undecided
    threat is clearly marked as unconfirmed rather than presented like a
    proven interference. *)
let describe (t : Threat.t) =
  let buf = Buffer.create 256 in
  let undecided = Threat.is_undecided t.Threat.severity in
  Buffer.add_string buf
    (Printf.sprintf "%s (%s)%s\n"
       (Threat.category_name t.Threat.category)
       (Threat.category_to_string t.Threat.category)
       (if undecided then " — UNDECIDED" else ""));
  Buffer.add_string buf
    (Printf.sprintf "  Between %s (%s) and %s (%s)\n" t.Threat.rule1.Rule.rule_id
       t.Threat.app1.Rule.name t.Threat.rule2.Rule.rule_id t.Threat.app2.Rule.name);
  Buffer.add_string buf (Printf.sprintf "  How: %s\n" t.Threat.detail);
  (match t.Threat.severity with
  | Threat.Undecided reason ->
    Buffer.add_string buf
      (Printf.sprintf
         "  Status: analysis ran out of budget (%s); treat as a potential threat\n" reason)
  | Threat.Confirmed -> ());
  (match Option.bind t.Threat.witness describe_witness with
  | Some situation -> Buffer.add_string buf (Printf.sprintf "  Example situation: %s\n" situation)
  | None -> ());
  Buffer.add_string buf (Printf.sprintf "  Risk: %s" (risk_note t.Threat.category));
  Buffer.contents buf

(** Summary block for the install screen. *)
let describe_all threats =
  match threats with
  | [] -> "No cross-app interference threats detected."
  | threats ->
    let undecided = List.length (List.filter (fun t -> Threat.is_undecided t.Threat.severity) threats) in
    let undecided_note =
      if undecided = 0 then ""
      else Printf.sprintf " (%d undecided: solver budget exhausted, shown conservatively)" undecided
    in
    Printf.sprintf "%d potential cross-app interference threat(s) detected%s:\n\n%s"
      (List.length threats) undecided_note
      (String.concat "\n\n" (List.map describe threats))
