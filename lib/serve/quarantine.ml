(** Poison-app quarantine policy: count per-app failures, trip at K.

    This module is the in-memory counting policy only; durability is
    {!Homeguard_store.Home}'s concern (it journals [Quarantine] events
    and replays them across restarts). The broker wires the two
    together: a [`Quarantined] verdict here becomes a journaled event
    there, and at startup the journal's survivors are {!restore}d here
    so the counter and the durable record agree. *)

type t = {
  threshold : int;  (** failures before quarantine trips *)
  failures : (string, int * string) Hashtbl.t;
      (** app -> (consecutive failures, last reason) *)
  mutable quarantined : (string * string) list;  (** (app, reason), trip order *)
}

let create ?(threshold = 3) () =
  if threshold < 1 then invalid_arg "Quarantine.create: threshold < 1";
  { threshold; failures = Hashtbl.create 16; quarantined = [] }

let is_quarantined t app = List.mem_assoc app t.quarantined

(** Record one failure against [app]. Returns [`Quarantined reason] the
    moment the K-th consecutive failure lands (and on every failure
    after — quarantine is sticky until {!clear}ed). *)
let note_failure t ~app ~reason =
  match List.assoc_opt app t.quarantined with
  | Some why -> `Quarantined why
  | None ->
    let count =
      match Hashtbl.find_opt t.failures app with Some (n, _) -> n + 1 | None -> 1
    in
    if count >= t.threshold then begin
      Hashtbl.remove t.failures app;
      let why =
        Printf.sprintf "%d consecutive analysis failures (last: %s)" count reason
      in
      t.quarantined <- t.quarantined @ [ (app, why) ];
      `Quarantined why
    end
    else begin
      Hashtbl.replace t.failures app (count, reason);
      `Counted count
    end

(** A clean analysis resets the consecutive-failure counter — only a
    streak of K failures trips quarantine, not K failures spread over a
    long, mostly-healthy history. No effect on already-quarantined
    apps. *)
let note_success t app = if not (is_quarantined t app) then Hashtbl.remove t.failures app

(** Seed a quarantine recovered from the journal (no re-counting). *)
let restore t ~app ~reason =
  if not (is_quarantined t app) then t.quarantined <- t.quarantined @ [ (app, reason) ]

(** Lift a quarantine and forget the failure history; [false] when the
    app was not quarantined. *)
let clear t app =
  let had = is_quarantined t app in
  t.quarantined <- List.filter (fun (a, _) -> a <> app) t.quarantined;
  Hashtbl.remove t.failures app;
  had

let failure_count t app =
  match Hashtbl.find_opt t.failures app with Some (n, _) -> n | None -> 0
