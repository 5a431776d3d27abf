(** Finite domains for solver variables: interval sets over integers and
    enumerated string sets. *)

type iset = (int * int) list
(** Sorted, disjoint, non-adjacent closed intervals. *)

type t =
  | Ints of iset
  | Bits of { off : int; bits : int }
      (** Packed small-domain fast path: the set [{off + i | bit i set}].
          Canonical — non-empty, bit 0 set, span within one word. *)
  | Enums of string list

type value = Int of int | Str of string
(** A concrete domain member. *)

val bitset_enabled : bool ref
(** When false, constructors always produce the interval-set
    representation. The representations are semantically equivalent;
    this is an A/B switch for benchmarking and an escape hatch. *)

val to_iset : t -> iset
(** Interval-set view of an integer domain (either representation).
    Raises [Invalid_argument] on enum domains. *)

val interval : int -> int -> t
(** [interval lo hi] — all integers in [lo..hi]. *)

val enums : string list -> t
(** Duplicates are removed; order is normalised. *)

val is_empty : t -> bool
val size : t -> int
val mem_int : int -> t -> bool
val mem_str : string -> t -> bool
val min_int_opt : t -> int option
val max_int_opt : t -> int option

exception Type_clash
(** Raised when combining an integer domain with an enum domain. *)

val inter : t -> t -> t
val union : t -> t -> t
val remove_int : int -> t -> t
val remove_str : string -> t -> t

val at_most : int -> t -> t
(** Keep only values [<= hi] (identity on enums). *)

val at_least : int -> t -> t

val value_to_string : value -> string

val choose : t -> value option
(** A representative member — for ints, the one closest to zero. *)

val distance_to_zero : t -> int
(** 0 when 0 is a member; used to order search branches. *)

val split : t -> t * t
(** Bisect a domain of size >= 2 into two non-empty halves. *)

val values : t -> value list
(** All members, smallest first. Linear in {!size}. *)

val to_string : t -> string
val equal : t -> t -> bool
