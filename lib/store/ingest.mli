(** Idempotent, sequenced message ingestion over the lossy config
    transport: per-home sequence numbers, duplicate suppression, a
    bounded reorder buffer and contiguous acks. *)

module Messaging = Homeguard_config.Messaging

type outcome = Applied of int | Duplicate | Buffered | Overflow

type t

val create : ?window:int -> ?last:int -> (seq:int -> string -> unit) -> t
(** [apply ~seq payload] runs for each message as it becomes contiguous.
    [window] (default 64) bounds the out-of-order buffer; [last] seeds
    the watermark (recovery). *)

val receive : t -> seq:int -> string -> outcome
val ack : t -> int
(** Highest contiguously applied sequence number. *)

val force_last : t -> int -> unit
(** Raise the watermark without applying (journal replay). *)

(** {2 Wire envelope and sender} *)

val encode : home:string -> seq:int -> string -> string
val decode : string -> (string * int * string) option
(** [Some (home, seq, payload)] for a well-formed envelope. *)

type sender

val sender : ?first_seq:int -> Messaging.t -> Messaging.transport -> home:string -> sender

val post :
  ?max_attempts:int ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  sender ->
  string ->
  int * (float * int) option
(** Sequence and deliver one payload with retries; returns the sequence
    number and the transport's [(total_ms, attempts)] outcome. *)
