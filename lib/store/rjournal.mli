(** Replicated journal: R copies of one append-only journal under
    distinct replica roots, appended in order behind one epoch-fence
    check, recovered by merging every record that survived on at least
    one replica (shortest-common-supersequence read-repair). *)

(** {2 Appending} *)

type t

val open_append :
  ?fsync:bool -> ?epoch:int -> ?fence_key:string -> string list -> t
(** One writer per replica path, in order. [~epoch] stamps every frame;
    [~fence_key] gates every {!append} through {!Fence.check} under that
    key. Multi-replica writers derive replica-distinct storage-fault
    keys from the last three path components, so a deterministic fault
    plan cannot tear the same logical append on every replica. *)

val append : t -> string -> unit
(** Fence-check once, then append the framed payload to every replica
    in order. May raise {!Fence.Stale} (stale owner: nothing written)
    or {!Homeguard_solver.Fault.Crashed} (mid-sequence crash: earlier
    replicas keep the record, later ones never see it — absorbed by
    merged recovery). *)

val epoch : t -> int
val sync : t -> unit
val close : t -> unit

val mkdirs : string -> unit
(** Recursively create a (replica) directory if missing. *)

val write_atomic_all : ?fsync:bool -> ?epoch:int -> string list -> string list -> unit
(** [write_atomic_all paths payloads] atomically replaces every replica
    with a journal holding exactly [payloads], creating missing replica
    directories. *)

val merge_records : string list list -> string list
(** The shortest common supersequence of the replicas' record streams —
    every record that survived anywhere, in a consistent order — folded
    pairwise. Each pairwise merge is linear in the shared prefix and
    allocates no table for it: identical replicas, or one that is a few
    frames ahead, merge in one pass. Only the remainder after the first
    disagreement pays the O(n·m) LCS table. *)

(** {2 Recovery} *)

type replica_report = {
  path : string;
  present : bool;
  records : int;
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
  repaired : bool;  (** rewritten to the merged stream *)
}

type recovery = {
  recovered : string list;  (** the merged record stream *)
  replicas : replica_report list;
  torn_bytes : int;
  quarantined : int;
  damage_index : int option;
      (** most conservative (lowest) first-damage index across replicas *)
  max_epoch : int;  (** fencing floor across all replicas *)
  diverged : bool;
  healed : int;  (** records restored to replicas that had lost them *)
  all_replicas_damaged : bool;
      (** every replica was damaged or missing (and at least one was
          actually damaged): only then can the merge itself have lost
          acknowledged records *)
}

val recover : ?fsync:bool -> string list -> recovery
(** Scan all replicas, merge, quarantine each replica's damage into its
    own sidecar, and rewrite every stale, damaged or missing replica
    with the merged stream (re-stamped at the highest epoch seen). *)
