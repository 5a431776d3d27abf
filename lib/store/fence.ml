(** Process-wide epoch fencing for journal ownership.

    A supervisor hands each successive owner of a home a strictly larger
    {e ownership epoch}; every durable append is made under that epoch.
    The fence is the registry of the highest epoch granted per key (one
    key per home): an append whose writer holds a smaller epoch than the
    registry's current value is a split-brain write — a stalled shard
    that woke up after its home was rebalanced — and is rejected with
    {!Stale} before it reaches the disk.

    The registry is process-global because the failure it guards against
    is two live writers {e in the same fleet} disagreeing about
    ownership; epochs are also stamped into every journal frame
    ({!Journal.frame_epoch}), so the floor survives restarts — recovery
    re-seeds the fence from the highest epoch found on disk.

    Rejections are counted (globally and per key): "zero stale-epoch
    appends accepted, N rejected" is a chaos-campaign invariant, and a
    nonzero rejection count is the expected trace of a survived
    split-brain window, not an error. *)

exception Stale of { key : string; held : int; current : int }

let table : (string, int) Hashtbl.t = Hashtbl.create 64
let rejected : (string, int) Hashtbl.t = Hashtbl.create 16
let total_rejected = ref 0
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let current key = with_lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt table key))

(** Register [epoch] as granted for [key]; the registry keeps the max,
    so re-acquiring an old epoch never lowers the fence. Returns the
    registry's current epoch after the acquire. *)
let acquire key epoch =
  with_lock (fun () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt table key) in
      let next = max cur epoch in
      Hashtbl.replace table key next;
      next)

(* Enforcement switch: [false] turns {!check} into a no-op, restoring
   the pre-fencing behaviour where stale writers reach the disk. This
   exists only so chaos campaigns can deliberately reintroduce the
   split-brain bug and prove the invariants (and the repro shrinker)
   catch it; production never clears it. *)
let enforced = Atomic.make true

let with_enforced v f =
  let before = Atomic.exchange enforced v in
  Fun.protect ~finally:(fun () -> Atomic.set enforced before) f

(** Gate one append made under [epoch]. Raises {!Stale} (and counts the
    rejection) when a later epoch has been granted for [key]. *)
let check ~key ~epoch =
  if not (Atomic.get enforced) then ()
  else
  let stale =
    with_lock (fun () ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt table key) in
        if epoch < cur then begin
          incr total_rejected;
          Hashtbl.replace rejected key
            (1 + Option.value ~default:0 (Hashtbl.find_opt rejected key));
          Some cur
        end
        else None)
  in
  match stale with
  | Some current -> raise (Stale { key; held = epoch; current })
  | None -> ()

let rejections () = !total_rejected

let rejections_for key =
  with_lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt rejected key))
