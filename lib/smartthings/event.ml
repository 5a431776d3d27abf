(** Platform events.

    The cloud listens to all sensor reports and broadcasts events to
    subscribed SmartApps (paper §II-A). An event carries the originating
    device (or platform feature such as the location mode), the attribute
    that changed and its new value. *)

type value = V_str of string | V_num of int

type source =
  | Device of Device.id
  | Location  (** location-mode and other platform-level events *)
  | Timer of string  (** scheduled-execution pseudo-events (method name) *)
  | App of string  (** app touch / virtual events *)

type t = {
  source : source;
  attribute : string;
  value : value;
  at : int;  (** milliseconds since simulation epoch *)
}
