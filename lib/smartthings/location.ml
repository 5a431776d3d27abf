(** The location object: platform-level home state.

    SmartThings exposes a per-home [location] with a set of user-defined
    modes ("Home", "Away", "Night", ...). Mode is both a sensor (rules
    trigger on and test it) and an actuator (rules call
    [setLocationMode]), making it a frequent CAI participant (Fig 8's
    "Mode" group). *)

type t = {
  mutable modes : string list;
  mutable current_mode : string;
}

let create () = { modes = [ "Home"; "Away"; "Night" ]; current_mode = "Home" }

let set_mode loc mode =
  if not (List.mem mode loc.modes) then loc.modes <- loc.modes @ [ mode ];
  loc.current_mode <- mode
