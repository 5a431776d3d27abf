(** CRC-32 (IEEE 802.3) used to frame journal records. *)

val string : string -> int
(** CRC-32 of the whole string, in [0, 2^32). *)

val substring : string -> int -> int -> int
(** [substring s pos len] is [string (String.sub s pos len)] without the
    copy. Raises [Invalid_argument] if the range is not within [s]. *)
