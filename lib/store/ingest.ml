(** Idempotent, sequenced message ingestion (paper §VII-A transports).

    The SMS/HTTP transport loses, duplicates and reorders deliveries,
    and {!Homeguard_config.Messaging.send_with_retry} deliberately
    redelivers. The receiver side therefore tracks a per-home sequence
    number: duplicates (seq at or below the contiguous watermark, or
    already buffered) are dropped, bounded out-of-order arrivals are
    buffered until the gap fills, and everything applied is acked by the
    highest {e contiguous} sequence number — so a sender may retry any
    unacked message blindly and the receiver's state is unchanged by
    redelivery or reordering. *)

module Messaging = Homeguard_config.Messaging

type outcome =
  | Applied of int  (** messages applied now — the arrival plus any buffered run it freed *)
  | Duplicate  (** already applied or already buffered; dropped *)
  | Buffered  (** out of order, held until the gap fills *)
  | Overflow  (** beyond the reorder window; the sender must retry later *)

type t = {
  window : int;
  apply : seq:int -> string -> unit;
  mutable last : int;  (** highest contiguously applied sequence number *)
  buffer : (int, string) Hashtbl.t;  (** last < seq <= last + window *)
}

let create ?(window = 64) ?(last = 0) apply =
  if window < 1 then invalid_arg "Ingest.create: window must be >= 1";
  { window; apply; last; buffer = Hashtbl.create 16 }

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
  else if seq > t.last + t.window then Overflow
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

(* -- the wire envelope and the sending side ---------------------------------- *)

let envelope_magic = "hgm1"

let encode ~home ~seq payload = Printf.sprintf "%s|%s|%d|%s" envelope_magic home seq payload

let decode s =
  match String.split_on_char '|' s with
  | m :: home :: seq :: rest when m = envelope_magic -> (
    match int_of_string_opt seq with
    | Some seq when seq > 0 -> Some (home, seq, String.concat "|" rest)
    | _ -> None)
  | _ -> None

type sender = {
  messaging : Messaging.t;
  transport : Messaging.transport;
  home : string;
  mutable next_seq : int;
}

let sender ?(first_seq = 1) messaging transport ~home =
  { messaging; transport; home; next_seq = first_seq }

(** Assign the next sequence number and deliver with retries; the
    receiver's dedup makes the redeliveries harmless. Returns the
    sequence number used and the transport outcome. *)
let post ?max_attempts ?backoff_ms ?max_backoff_ms s payload =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  let wire = encode ~home:s.home ~seq payload in
  (seq, Messaging.send_with_retry ?max_attempts ?backoff_ms ?max_backoff_ms s.messaging s.transport wire)
