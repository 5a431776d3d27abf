(** Poison-app quarantine policy: count per-app failure streaks, trip at K.

    This module is the in-memory counting policy only; which apps are
    quarantined is {!Homeguard_store.Home}'s record (it journals
    [Quarantine] events and replays them across restarts). The broker
    wires the two together: a [`Quarantined] verdict here becomes a
    journaled event there, and the broker asks the home, never this
    counter, whether an app is quarantined. *)

type t = {
  threshold : int;  (** failures before quarantine trips *)
  failures : (string, int) Hashtbl.t;  (** app -> consecutive failures *)
}

let create ?(threshold = 3) () =
  if threshold < 1 then invalid_arg "Quarantine.create: threshold < 1";
  { threshold; failures = Hashtbl.create 16 }

(** Record one failure against [app]. Returns [`Quarantined reason] the
    moment the K-th consecutive failure lands; the trip starts the
    streak over. *)
let note_failure t ~app ~reason =
  let count = match Hashtbl.find_opt t.failures app with Some n -> n + 1 | None -> 1 in
  if count >= t.threshold then begin
    Hashtbl.remove t.failures app;
    `Quarantined (Printf.sprintf "%d consecutive analysis failures (last: %s)" count reason)
  end
  else begin
    Hashtbl.replace t.failures app count;
    `Counted count
  end

(** A clean analysis resets the consecutive-failure counter — only a
    streak of K failures trips quarantine, not K failures spread over a
    long, mostly-healthy history. *)
let note_success t app = Hashtbl.remove t.failures app
