(** Bounded, locked, per-process tables of immutable values; see the
    interface. *)

type ('k, 'v) t = { bound : int; table : ('k, 'v) Hashtbl.t; lock : Mutex.t }

let create ~bound = { bound; table = Hashtbl.create (min bound 256); lock = Mutex.create () }
let find t k = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table k)

(* Called under the lock before a new key goes in. *)
let make_room t = if Hashtbl.length t.table >= t.bound then Hashtbl.reset t.table

let add t k v =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some first -> first
      | None ->
        make_room t;
        Hashtbl.add t.table k v;
        v)

let replace t k v =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.table k) then make_room t;
      Hashtbl.replace t.table k v)

(* Keyed by name, not by content: a name holds one app at a time, so a
   changed app under a reused name replaces its entry, and the
   structural compare runs only when a fresh extraction or decode meets
   the held app. The compare is outside the lock; two domains racing
   with equal apps each return an app equal to their own. *)
let apps : (string, Rule.smartapp) t = create ~bound:1024

let share_app (app : Rule.smartapp) =
  match find apps app.Rule.name with
  | Some held when held == app || held = app -> held
  | _ ->
    replace apps app.Rule.name app;
    app
