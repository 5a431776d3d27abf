(** Time-ordered event queue for the discrete-event simulator.

    A functional priority queue over [(time_ms, sequence)] keys;
    same-time entries preserve insertion order via the monotonically
    increasing sequence number, so runs are deterministic given a seed. *)

module Key = struct
  type t = int * int  (** time in ms, insertion sequence *)

  let compare (t1, s1) (t2, s2) =
    match compare t1 t2 with 0 -> compare s1 s2 | c -> c
end

module KMap = Map.Make (Key)

type 'a t = { mutable entries : 'a KMap.t; mutable seq : int }

let create () = { entries = KMap.empty; seq = 0 }

(** [push q time item] enqueues [item] at [time] (ms). *)
let push q time item =
  q.seq <- q.seq + 1;
  q.entries <- KMap.add (time, q.seq) item q.entries

(** [pop_until q bound] removes and returns the earliest [(time, item)]
    with [time <= bound]; entries past the bound stay queued. *)
let pop_until q bound =
  match KMap.min_binding_opt q.entries with
  | Some (((time, _) as key), item) when time <= bound ->
    q.entries <- KMap.remove key q.entries;
    Some (time, item)
  | _ -> None
