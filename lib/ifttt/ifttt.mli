(** IFTTT-style template rules (paper §VIII-D4, Table IV): parse applet
    templates and lower them into the shared rule IR so the detector is
    platform independent. *)

module Rule = Homeguard_rules.Rule

type trigger_template =
  | On_state of { device : string; attribute : string; value : string }
  | Daily_at of int  (** minutes after midnight *)

type action_template =
  | Do_command of { device : string; command : string; arg : string option }
  | Set_mode of string

type applet = {
  applet_name : string;
  trigger : trigger_template;
  filters : (string * string * string) list;
  action : action_template;
}

exception Parse_error of string

val parse : ?name:string -> string -> applet
(** One applet line, e.g.
    ["IF porch.motion IS active THEN porchLight DO on"]. *)

val parse_recipes : name:string -> string -> Rule.smartapp
(** Parse a multi-line recipe text ([#] comments allowed). *)
