(** Idempotent, sequenced message ingestion (paper §VII-A transports).

    A transport may lose, duplicate and reorder deliveries, and any
    sender that retries redelivers. The receiver side therefore tracks a
    per-home sequence number: duplicates (seq at or below the contiguous
    watermark, or already buffered) are dropped, bounded out-of-order
    arrivals are buffered until the gap fills, and everything applied is
    acked by the highest {e contiguous} sequence number — so a sender may
    retry any unacked message blindly and the receiver's state is
    unchanged by redelivery or reordering. *)

type outcome =
  | Applied of int  (** messages applied now — the arrival plus any buffered run it freed *)
  | Duplicate  (** already applied or already buffered; dropped *)
  | Buffered  (** out of order, held until the gap fills *)
  | Overflow  (** beyond the reorder window; the sender must retry later *)

(* How many sequenced deliveries past a gap are buffered. *)
let window = 64

type t = {
  apply : seq:int -> string -> unit;
  mutable last : int;  (** highest contiguously applied sequence number *)
  buffer : (int, string) Hashtbl.t;  (** last < seq <= last + window *)
}

let create apply = { apply; last = 0; buffer = Hashtbl.create 16 }

let ack t = t.last

(** Raise the watermark without applying (recovery replay: the journal
    already holds the applied messages). Buffered entries at or below
    the new watermark are dropped. *)
let force_last t n =
  if n > t.last then begin
    t.last <- n;
    Hashtbl.iter (fun s _ -> if s <= n then Hashtbl.remove t.buffer s) (Hashtbl.copy t.buffer)
  end

let receive t ~seq payload =
  if seq <= t.last || Hashtbl.mem t.buffer seq then Duplicate
  else if seq > t.last + window then Overflow
  else if seq = t.last + 1 then begin
    t.apply ~seq payload;
    t.last <- seq;
    let applied = ref 1 in
    let rec drain () =
      match Hashtbl.find_opt t.buffer (t.last + 1) with
      | Some p ->
        Hashtbl.remove t.buffer (t.last + 1);
        t.apply ~seq:(t.last + 1) p;
        t.last <- t.last + 1;
        incr applied;
        drain ()
      | None -> ()
    in
    drain ();
    Applied !applied
  end
  else begin
    Hashtbl.add t.buffer seq payload;
    Buffered
  end
