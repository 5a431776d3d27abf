(** Idempotent, sequenced message ingestion over the lossy config
    transport: per-home sequence numbers, duplicate suppression, a
    bounded reorder buffer and contiguous acks. *)

type outcome = Applied of int | Duplicate | Buffered | Overflow

type t

val create : (seq:int -> string -> unit) -> t
(** [apply ~seq payload] runs for each message as it becomes contiguous.
    A fixed window of 64 sequence numbers past the watermark bounds the
    out-of-order buffer. The watermark starts at 0; recovery raises it
    with {!force_last}. *)

val receive : t -> seq:int -> string -> outcome
val ack : t -> int
(** Highest contiguously applied sequence number. *)

val force_last : t -> int -> unit
(** Raise the watermark without applying (journal replay). *)
