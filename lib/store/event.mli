(** Home-state events — the journal's payloads, JSON-encoded, with
    idempotent replay semantics. *)

module Rule = Homeguard_rules.Rule
module Policy = Homeguard_handling.Policy

type t =
  | Install of Rule.smartapp
  | Uninstall of string
  | Config of { seq : int option; uri : string }
  | Decision of { threat_id : string; decision : Policy.decision }
  | Watermark of int
  | Quarantine of { app : string; reason : string }
      (** poison-app quarantine: exclude the app from batch audits until
          explicitly cleared (survives restarts through replay) *)
  | Unquarantine of string
  | Epoch of int
      (** ownership handover: the supervisor granted this epoch to the
          home's new owner; replay keeps the highest seen as the
          fencing floor *)

exception Decode_error of string

val decision_to_json : Policy.decision -> Homeguard_rules.Json.t
val decision_of_json : Homeguard_rules.Json.t -> Policy.decision

val to_json : t -> Homeguard_rules.Json.t
val of_json : Homeguard_rules.Json.t -> t
val to_string : t -> string

val of_string : string -> t
(** Raises {!Decode_error}, and nothing else, on any payload that is not
    an event, malformed JSON included. *)

val describe : t -> string
