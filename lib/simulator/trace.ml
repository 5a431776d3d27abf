(** Simulation traces: the observable history of a run. *)

type entry =
  | Command of { at : int; app : string; rule : string; device : string; command : string }
      (** a rule issued a command to a device *)
  | Attr_change of { at : int; device : string; attribute : string; value : string }
  | Mode_change of { at : int; mode : string }
  | Event_fired of { at : int; source : string; attribute : string; value : string }
  | Suppressed of
      { at : int; app : string; rule : string; device : string; command : string; reason : string }
      (** the mediator suppressed a command before dispatch *)
  | Deferred of
      { at : int; app : string; rule : string; device : string; command : string; until : int }
      (** the mediator deferred a command; it is re-enqueued at [until] *)

type t = entry list  (** chronological order *)

let entry_to_string = function
  | Command { at; app; rule; device; command } ->
    Printf.sprintf "%6dms  %s/%s -> %s.%s()" at app rule device command
  | Attr_change { at; device; attribute; value } ->
    Printf.sprintf "%6dms  %s.%s := %s" at device attribute value
  | Mode_change { at; mode } -> Printf.sprintf "%6dms  location.mode := %s" at mode
  | Event_fired { at; source; attribute; value } ->
    Printf.sprintf "%6dms  event %s.%s = %s" at source attribute value
  | Suppressed { at; app; rule; device; command; reason } ->
    Printf.sprintf "%6dms  SUPPRESSED %s/%s -> %s.%s()  (%s)" at app rule device command reason
  | Deferred { at; app; rule; device; command; until } ->
    Printf.sprintf "%6dms  DEFERRED %s/%s -> %s.%s()  until %dms" at app rule device command
      until

let to_string trace = String.concat "\n" (List.map entry_to_string trace)

(** Commands issued to [device], in order. *)
let commands_on trace device =
  List.filter_map
    (function
      | Command { at; command; device = d; _ } when d = device -> Some (at, command)
      | _ -> None)
    trace

(** Successive values taken by [device.attribute]. *)
let attribute_timeline trace device attribute =
  List.filter_map
    (function
      | Attr_change { at; device = d; attribute = a; value } when d = device && a = attribute
        ->
        Some (at, value)
      | _ -> None)
    trace

(** Final value of [device.attribute], if it ever changed. *)
let final_attribute trace device attribute =
  match List.rev (attribute_timeline trace device attribute) with
  | (_, v) :: _ -> Some v
  | [] -> None

(** Number of value flips in an attribute timeline (flapping metric for
    Loop-Triggering verification). *)
let flap_count trace device attribute =
  let values = List.map snd (attribute_timeline trace device attribute) in
  let rec count = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + count rest
    | _ -> 0
  in
  count values

(** Commands the mediator suppressed on [device], in order. *)
let suppressed_commands trace device =
  List.filter_map
    (function
      | Suppressed { at; command; device = d; _ } when d = device -> Some (at, command)
      | _ -> None)
    trace

(** Did two contradictory commands land on [device] within [window_ms]?
    (Actuator-race witness.) The [opposites] pairs are unordered — either
    command of a pair may come first — and an entry never races itself. *)
let opposite_commands_within trace device ~window_ms ~opposites =
  let cmds = Array.of_list (commands_on trace device) in
  let opposed c1 c2 = List.mem (c1, c2) opposites || List.mem (c2, c1) opposites in
  let n = Array.length cmds in
  let found = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let t1, c1 = cmds.(i) and t2, c2 = cmds.(j) in
      if abs (t2 - t1) <= window_ms && opposed c1 c2 then found := true
    done
  done;
  !found
