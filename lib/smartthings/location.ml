(** The location object: platform-level home state.

    SmartThings exposes a per-home [location] with a set of user-defined
    modes ("Home", "Away", "Night", ...). Mode is both a sensor (rules
    trigger on and test it) and an actuator (rules call
    [setLocationMode]), making it a frequent CAI participant (Fig 8's
    "Mode" group). *)

type t = {
  mutable modes : string list;
  mutable current_mode : string;
  mutable sunrise_minutes : int;  (** minutes after midnight *)
  mutable sunset_minutes : int;
}

let create () =
  {
    modes = [ "Home"; "Away"; "Night" ];
    current_mode = "Home";
    sunrise_minutes = 6 * 60 + 30;
    sunset_minutes = 19 * 60 + 45;
  }

let set_mode loc mode =
  if not (List.mem mode loc.modes) then loc.modes <- loc.modes @ [ mode ];
  loc.current_mode <- mode
