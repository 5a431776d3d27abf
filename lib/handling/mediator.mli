(** Runtime reference monitor: compiles detected threats plus handling
    decisions into per-rule / per-(rule, command) lookups and judges
    every actuator command before dispatch. *)

module Rule = Homeguard_rules.Rule
module Threat = Homeguard_detector.Threat

type verdict =
  | Allow
  | Suppress of string  (** reason *)
  | Defer of { delay_ms : int; reason : string }
      (** re-enqueue the command after [delay_ms]; the caller bumps the
          deferral count *)

type log_entry = {
  at : int;
  threat : string;
  app : string;
  rule : string;
  device : string;
  command : string;
  outcome : string;
}

type query = {
  app : string;
  rule : string;
  device : string;
  command : string;
  provenance : (string * string) list;
      (** (app name, rule id) hops that causally led here, oldest first *)
  deferrals : int;
}

type stats = { consulted : int; allowed : int; suppressed : int; deferred : int }

type t

val create : ?defer_delay_ms:int -> ?max_deferrals:int -> Policy.store -> Threat.t list -> t
(** Compile the threats under the store's decisions ([Policy.decision_for]
    per threat). [defer_delay_ms] (default 60s) is the Defer re-enqueue
    delay; after [max_deferrals] (default 3) an unconfirmed command is
    suppressed instead. *)

val judge : t -> at:int -> query -> verdict
(** Precedence: blocked rule > lost actuator priority > broken trigger
    chain > pending confirmation > Allow. Non-Allow verdicts (and
    confirmed Allows) are appended to the enforcement log. *)

val confirm : t -> string -> unit
(** [confirm t threat_id] — the user confirmed the threat; subsequent
    Confirm-gated commands under it are allowed. *)

val log : t -> log_entry list
(** Enforcement log, oldest first. *)

val stats : t -> stats
val log_to_string : t -> string
