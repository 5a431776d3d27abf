(** Home-state events: the journal's payloads.

    One constructor per state-changing operation on a home — app
    installs (the full rule file, via {!Rule_json}, so recovery is
    self-contained), uninstalls, configuration-URI deliveries (with
    their ingestion sequence number when they arrived sequenced),
    per-threat handling overrides, and the dedup watermark emitted by
    compaction. Encoded as JSON, one event per journal record.

    Replay of an event sequence is {e idempotent}: installing an app
    that is already installed with an identical rule file, re-recording
    a configuration, or re-setting a decision all leave the state
    unchanged — which is what makes the crash window between the
    snapshot rename and the journal truncation (and redelivered
    messages generally) harmless. *)

module Rule = Homeguard_rules.Rule
module Rule_json = Homeguard_rules.Rule_json
module Json = Homeguard_rules.Json
module Policy = Homeguard_handling.Policy
module Intern = Homeguard_rules.Intern

type t =
  | Install of Rule.smartapp  (** the user kept the app *)
  | Uninstall of string
  | Config of { seq : int option; uri : string }
  | Decision of { threat_id : string; decision : Policy.decision }
  | Watermark of int  (** highest contiguously applied sequence number *)
  | Quarantine of { app : string; reason : string }
      (** the app's extraction/audit failed repeatedly; exclude it from
          batch audits until explicitly cleared *)
  | Unquarantine of string
  | Epoch of int
      (** ownership handover: the supervisor granted this epoch to the
          home's new owner *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

let decision_to_json = function
  | Policy.Allow -> Json.Obj [ ("allow", Json.Null) ]
  | Policy.Prioritize { winner } -> Json.Obj [ ("prioritize", Json.Str winner) ]
  | Policy.Block { rule } -> Json.Obj [ ("block", Json.Str rule) ]
  | Policy.Break_chain { hop_budget } -> Json.Obj [ ("break", Json.Int hop_budget) ]
  | Policy.Confirm -> Json.Obj [ ("confirm", Json.Null) ]

let decision_of_json = function
  | Json.Obj [ ("allow", Json.Null) ] -> Policy.Allow
  | Json.Obj [ ("prioritize", Json.Str winner) ] -> Policy.Prioritize { winner }
  | Json.Obj [ ("block", Json.Str rule) ] -> Policy.Block { rule }
  | Json.Obj [ ("break", Json.Int hop_budget) ] -> Policy.Break_chain { hop_budget }
  | Json.Obj [ ("confirm", Json.Null) ] -> Policy.Confirm
  | j -> fail "bad decision: %s" (Json.to_string j)

let to_json = function
  | Install app -> Json.Obj [ ("install", Rule_json.smartapp_to_json app) ]
  | Uninstall name -> Json.Obj [ ("uninstall", Json.Str name) ]
  | Config { seq; uri } ->
    Json.Obj
      [
        ( "config",
          Json.Obj
            [
              ("seq", match seq with Some s -> Json.Int s | None -> Json.Null);
              ("uri", Json.Str uri);
            ] );
      ]
  | Decision { threat_id; decision } ->
    Json.Obj
      [
        ( "decision",
          Json.Obj [ ("id", Json.Str threat_id); ("d", decision_to_json decision) ] );
      ]
  | Watermark n -> Json.Obj [ ("watermark", Json.Int n) ]
  | Quarantine { app; reason } ->
    Json.Obj
      [
        ( "quarantine",
          Json.Obj [ ("app", Json.Str app); ("reason", Json.Str reason) ] );
      ]
  | Unquarantine app -> Json.Obj [ ("unquarantine", Json.Str app) ]
  | Epoch n -> Json.Obj [ ("epoch", Json.Int n) ]

let of_json = function
  | Json.Obj [ ("install", app) ] -> Install (Rule_json.smartapp_of_json app)
  | Json.Obj [ ("uninstall", Json.Str name) ] -> Uninstall name
  | Json.Obj [ ("config", Json.Obj [ ("seq", seq); ("uri", Json.Str uri) ]) ] ->
    Config { seq = (match seq with Json.Int s -> Some s | _ -> None); uri }
  | Json.Obj [ ("decision", Json.Obj [ ("id", Json.Str threat_id); ("d", d) ]) ] ->
    Decision { threat_id; decision = decision_of_json d }
  | Json.Obj [ ("watermark", Json.Int n) ] -> Watermark n
  | Json.Obj
      [
        ( "quarantine",
          Json.Obj [ ("app", Json.Str app); ("reason", Json.Str reason) ] );
      ] ->
    Quarantine { app; reason }
  | Json.Obj [ ("unquarantine", Json.Str app) ] -> Unquarantine app
  | Json.Obj [ ("epoch", Json.Int n) ] -> Epoch n
  | j -> fail "bad event: %s" (Json.to_string j)

let to_string e = Json.to_string (to_json e)

let decode s =
  match Json.of_string s with
  | Error m -> fail "unparseable event: %s" m
  | Ok j -> ( try of_json j with Rule_json.Decode_error m -> fail "bad rule file in event: %s" m)

(* Decoded Install payloads, interned once per process. Every Install
   record carries the app's full rule file, and a fleet restart replays
   the same catalog apps in every home: keyed by the payload bytes, the
   second decode of a payload is one hash and one compare. A fresh
   decode goes through {!Intern.share_app}, so the homes share one
   immutable [Rule.smartapp], and it is the very app a live install of
   the same rules holds. Only successful decodes are kept. *)
let intern_bound = 1024
let interned : (string, t) Intern.t = Intern.create ~bound:intern_bound

let of_string s =
  if not (String.starts_with ~prefix:"{\"install\":" s) then decode s
  else
    match Intern.find interned s with
    | Some ev -> ev
    | None ->
      let ev = match decode s with Install app -> Install (Intern.share_app app) | ev -> ev in
      Intern.add interned s ev

let describe = function
  | Install app -> "install " ^ app.Rule.name
  | Uninstall name -> "uninstall " ^ name
  | Config { seq = Some s; uri } -> Printf.sprintf "config #%d %s" s uri
  | Config { seq = None; uri } -> "config " ^ uri
  | Decision { threat_id; decision } ->
    Printf.sprintf "decision %s -> %s" threat_id (Policy.describe decision)
  | Watermark n -> Printf.sprintf "watermark %d" n
  | Quarantine { app; reason } -> Printf.sprintf "quarantine %s (%s)" app reason
  | Unquarantine app -> "unquarantine " ^ app
  | Epoch n -> Printf.sprintf "epoch %d" n
