(** Deterministic, test-only fault injection for the solver: make
    solves raise, time out or exhaust their budget on demand. Disarmed
    by default; whether a solve fails depends only on the armed seed and
    the solve's key, never on call order or domain count. *)

exception Injected of string

type mode =
  | Raise
  | Exhaust
  | Timeout
  | Stall of float
      (** latency injection: the selected solve sleeps that many
          wall-clock milliseconds and then proceeds normally — a slow
          solver rather than a broken one, for overload, deadline and
          load-shedding tests *)

val arm : ?once:bool -> ?seed:int -> ?only:string -> rate_per_thousand:int -> mode -> unit
(** Arm the hook. [~once] fires each selected key only on its first
    solve (so a retry succeeds); the default fires on every solve of a
    selected key. [~only] restricts selection to keys containing that
    substring — solve keys are formula texts carrying qualified
    ["App::var"] names, so [~only:"PoisonApp:"] targets exactly the
    solves touching one app. *)

val disarm : unit -> unit
val armed : unit -> bool

val contains : sub:string -> string -> bool
(** Does the string contain [sub]? *)

val check : string -> unit
(** Called by the solver with the solve's key; raises {!Injected} or
    {!Budget.Exhausted} when the armed plan selects the key. *)

val set_sleeper : (float -> unit) -> unit
(** Replace how a [Stall] passes its milliseconds. Wall-clock
    ([Unix.sleepf]) by default; virtual-time harnesses install a
    function that advances their injectable clock instead, so stall
    windows cost no real time in CI. *)

val reset_sleeper : unit -> unit
(** Restore the wall-clock sleeper. *)
