(** Heartbeat health check for one shard.

    A live shard beats whenever it completes work (and on supervisor
    ticks while idle); the supervisor reads {!status} against the
    injectable clock. [Late] is informational; [Failed] — the shard
    missed [miss_threshold] whole beat intervals — is what triggers a
    supervised restart, catching the failure mode crash detection
    can't: a shard wedged mid-request ({!Homeguard_solver.Fault.Stall})
    that will never raise. *)

module Deadline = Homeguard_serve.Deadline

(* whole missed intervals that fail a shard; every fleet uses this *)
let miss_threshold = 3

type t = {
  clock : Deadline.clock;
  interval_ms : float;
  mutable last_beat : float;
  mutable beats : int;
}

type status = Alive | Late of int | Failed of int

let create ~interval_ms clock =
  if interval_ms <= 0.0 then invalid_arg "Health.create: interval_ms <= 0";
  { clock; interval_ms; last_beat = clock (); beats = 0 }

let beat t =
  t.last_beat <- t.clock ();
  t.beats <- t.beats + 1

let missed t =
  int_of_float (Float.max 0.0 ((t.clock () -. t.last_beat) /. t.interval_ms))

let status t =
  let m = missed t in
  if m = 0 then Alive else if m < miss_threshold then Late m else Failed m

let beats t = t.beats

let describe t =
  match status t with
  | Alive -> "alive"
  | Late m -> Printf.sprintf "late missed-beats=%d" m
  | Failed m -> Printf.sprintf "failed missed-beats=%d" m
