(** Finite domains for solver variables.

    Integer domains are interval sets: sorted lists of disjoint,
    non-adjacent closed intervals — the classic FD-solver representation
    (JaCoP's IntervalDomain, which the paper uses, has the same shape).
    Narrow integer domains (span < 63) additionally carry a packed
    bitset representation: most rule domains are tiny enums or short
    intervals, and bit operations make the inner propagation loop cheap.
    Enumerated domains are sorted string lists.

    Representation invariants for [Bits { off; bits }]: [bits <> 0],
    bit 0 is set (so [off] is the least member) and all set bits lie in
    0..62. The canonical form makes structural comparison of two [Bits]
    values coincide with semantic equality. *)

type iset = (int * int) list  (** sorted, disjoint, non-adjacent [lo,hi] *)

type t =
  | Ints of iset
  | Bits of { off : int; bits : int }  (** {off + i | bit i of bits set} *)
  | Enums of string list  (** sorted, distinct *)

(** When false, integer domains always use the interval-set
    representation. The two representations are semantically
    indistinguishable; the flag exists for A/B benchmarking and as an
    escape hatch. *)
let bitset_enabled = ref true

(* Bits can hold spans of at most this many values (bit indices 0..62;
   shifts by >= Sys.int_size - 1 are unspecified in OCaml, so stay clear). *)
let max_bits = 62

(* -- interval-set algebra ------------------------------------------------ *)

(* Normalise a list of possibly overlapping intervals. *)
let normalize intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) intervals in
  let rec merge = function
    | [] -> []
    | [ iv ] -> [ iv ]
    | (a1, b1) :: (a2, b2) :: rest ->
      (* [b1 = max_int] always merges — [b1 + 1] would wrap negative *)
      if b1 = max_int || a2 <= b1 + 1 then merge ((a1, max b1 b2) :: rest)
      else (a1, b1) :: merge ((a2, b2) :: rest)
  in
  merge (List.filter (fun (a, b) -> a <= b) sorted)

let iset_mem n iv = List.exists (fun (a, b) -> a <= n && n <= b) iv

let iset_inter xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], _ | _, [] -> List.rev acc
    | (a1, b1) :: xs', (a2, b2) :: ys' ->
      let lo = max a1 a2 and hi = min b1 b2 in
      let acc = if lo <= hi then (lo, hi) :: acc else acc in
      if b1 < b2 then go xs' ys acc else go xs ys' acc
  in
  go xs ys []

let iset_union xs ys = normalize (xs @ ys)

let iset_remove n iv =
  List.concat_map
    (fun (a, b) ->
      if n < a || n > b then [ (a, b) ]
      else
        (if a <= n - 1 && n > min_int then [ (a, n - 1) ] else [])
        @ if n + 1 <= b && n < max_int then [ (n + 1, b) ] else [])
    iv

(* Keep only values <= hi. *)
let iset_at_most hi iv =
  List.filter_map (fun (a, b) -> if a > hi then None else Some (a, min b hi)) iv

let iset_at_least lo iv =
  List.filter_map (fun (a, b) -> if b < lo then None else Some (max a lo, b)) iv

(* -- bitset representation ----------------------------------------------- *)

(* Span [hi - lo] computed overflow-safely: a mathematical difference
   beyond max_int wraps negative, so [d >= 0] also rejects overflow. *)
let span_fits lo hi =
  let d = hi - lo in
  d >= 0 && d < max_bits

let iset_of_bits off bits =
  let rec runs i acc =
    if i > max_bits then List.rev acc
    else if bits land (1 lsl i) = 0 then runs (i + 1) acc
    else begin
      let j = ref i in
      while !j <= max_bits && bits land (1 lsl !j) <> 0 do
        incr j
      done;
      runs !j ((off + i, off + !j - 1) :: acc)
    end
  in
  runs 0 []

(* Lowest set bit index of a non-zero word. *)
let lowest_bit bits =
  let rec go i = if bits land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let highest_bit bits =
  let rec go i = if bits land (1 lsl i) <> 0 then i else go (i - 1) in
  go max_bits

let popcount bits =
  let rec go b acc = if b = 0 then acc else go (b land (b - 1)) (acc + 1) in
  go bits 0

(* Canonicalise: shift so bit 0 is set; empty becomes [Ints []]. *)
let of_bits off bits =
  if bits = 0 then Ints []
  else
    let l = lowest_bit bits in
    Bits { off = off + l; bits = bits lsr l }

(* Choose the representation for a normalised interval set. *)
let of_iset iv : t =
  match iv with
  | [] -> Ints []
  | (lo, _) :: _ when !bitset_enabled ->
    let rec last = function [ (_, b) ] -> b | _ :: rest -> last rest | [] -> assert false in
    let hi = last iv in
    if span_fits lo hi then
      Bits
        { off = lo;
          bits =
            List.fold_left
              (fun acc (a, b) ->
                let rec fill acc i = if i > b - lo then acc else fill (acc lor (1 lsl i)) (i + 1) in
                fill acc (a - lo))
              0 iv }
    else Ints iv
  | _ -> Ints iv

(** The interval-set view of any integer domain. *)
let to_iset = function
  | Ints iv -> iv
  | Bits { off; bits } -> iset_of_bits off bits
  | Enums _ -> invalid_arg "Domain.to_iset: enum domain"

(* -- constructors -------------------------------------------------------- *)

let interval lo hi : t = of_iset (normalize [ (lo, hi) ])

let enums values : t = Enums (List.sort_uniq compare values)

let is_empty = function Ints iv -> iv = [] | Bits _ -> false | Enums vs -> vs = []

let size = function
  | Ints iv -> List.fold_left (fun acc (a, b) -> acc + (b - a + 1)) 0 iv
  | Bits { bits; _ } -> popcount bits
  | Enums vs -> List.length vs

let mem_int n = function
  | Ints iv -> iset_mem n iv
  | Bits { off; bits } ->
    (* [n >= off] first, comparison not subtraction: [n - off] can wrap
       either way at the extremes of the int range *)
    n >= off
    &&
    let d = n - off in
    d >= 0 && d <= max_bits && bits land (1 lsl d) <> 0
  | Enums _ -> false

let mem_str s = function Enums vs -> List.mem s vs | Ints _ | Bits _ -> false

let min_int_opt = function
  | Ints ((a, _) :: _) -> Some a
  | Bits { off; _ } -> Some off
  | _ -> None

let max_int_opt = function
  | Ints iv -> ( match List.rev iv with (_, b) :: _ -> Some b | [] -> None)
  | Bits { off; bits } -> Some (off + highest_bit bits)
  | Enums _ -> None

exception Type_clash

(** Intersection; raises {!Type_clash} on int/enum mismatch. *)
let inter d1 d2 =
  match (d1, d2) with
  | Bits b1, Bits b2 ->
    (* Align both words to the larger offset; members below it cannot be
       common, and both spans end within 62 bits of it. A wrapped
       (negative) shift distance means the true distance exceeds the
       span, i.e. no overlap. *)
    let off = max b1.off b2.off in
    let shift boff bbits =
      let s = off - boff in
      if s < 0 || s > max_bits then 0 else bbits lsr s
    in
    of_bits off (shift b1.off b1.bits land shift b2.off b2.bits)
  | (Ints _ | Bits _), (Ints _ | Bits _) -> of_iset (iset_inter (to_iset d1) (to_iset d2))
  | Enums x, Enums y -> Enums (List.filter (fun v -> List.mem v y) x)
  | _ -> raise Type_clash

let union d1 d2 =
  match (d1, d2) with
  | Bits b1, Bits b2 -> (
    let off = min b1.off b2.off in
    let s1 = b1.off - off and s2 = b2.off - off in
    (* joint span must still fit one word. Check each shift distance
       against [max_bits] BEFORE summing with the span: a wrapped
       (negative) or huge distance would overflow the sum right back
       into range and let a garbage shift through the guard *)
    let fits s bits = s >= 0 && s <= max_bits && s + highest_bit bits <= max_bits in
    if fits s1 b1.bits && fits s2 b2.bits then
      of_bits off ((b1.bits lsl s1) lor (b2.bits lsl s2))
    else of_iset (iset_union (to_iset d1) (to_iset d2)))
  | (Ints _ | Bits _), (Ints _ | Bits _) -> of_iset (iset_union (to_iset d1) (to_iset d2))
  | Enums x, Enums y -> Enums (List.sort_uniq compare (x @ y))
  | _ -> raise Type_clash

let remove_int n = function
  | Ints iv -> Ints (iset_remove n iv)
  | Bits { off; bits } ->
    if n >= off then
      let d = n - off in
      if d >= 0 && d <= max_bits then of_bits off (bits land lnot (1 lsl d))
      else Bits { off; bits }
    else Bits { off; bits }
  | Enums _ as d -> d

let remove_str s = function
  | Enums vs -> Enums (List.filter (fun v -> v <> s) vs)
  | (Ints _ | Bits _) as d -> d

let at_most hi = function
  | Ints iv -> Ints (iset_at_most hi iv)
  | Bits { off; bits } as d ->
    if hi < off then Ints []
    else
      let k = hi - off in
      (* wrapped-negative k means hi is far above the whole span *)
      if k < 0 || k >= max_bits then d
      else of_bits off (bits land ((1 lsl (k + 1)) - 1))
  | Enums _ as d -> d

let at_least lo = function
  | Ints iv -> Ints (iset_at_least lo iv)
  | Bits { off; bits } as d ->
    if lo <= off then d
    else
      let k = lo - off in
      if k < 0 || k > max_bits then Ints [] (* wrapped or past the span *)
      else of_bits off (bits land lnot ((1 lsl k) - 1))
  | Enums _ as d -> d

type value = Int of int | Str of string

let value_to_string = function Int n -> string_of_int n | Str s -> s

(* Magnitude that is safe on [min_int]: [abs min_int] is negative in
   OCaml, which silently misorders "closest to zero" comparisons. *)
let mag n = if n >= 0 then n else if n = min_int then max_int else -n

(** Any representative value — for ints, the member closest to zero, so
    witness models read naturally. *)
let choose d =
  match d with
  | Ints [] | Enums [] -> None
  | Enums (v :: _) -> Some (Str v)
  | Ints _ | Bits _ ->
    let iv = to_iset d in
    let best (a, b) = if a <= 0 && 0 <= b then 0 else if mag a < mag b then a else b in
    let candidates = List.map best iv in
    Some
      (Int
         (List.fold_left
            (fun acc n -> if mag n < mag acc then n else acc)
            (List.hd candidates) candidates))

(** Distance from the domain to zero (0 when 0 is a member); used to
    order search branches so models prefer small-magnitude values.
    Saturates at [max_int] for far-away or empty domains. *)
let distance_to_zero d =
  match d with
  | Enums _ -> 0
  | Ints _ | Bits _ -> (
    match choose d with Some (Int n) -> mag n | _ -> max_int)

(** Split a domain into two non-empty halves for search (requires
    [size >= 2]). *)
let split = function
  | (Ints _ | Bits _) as d ->
    let lo = Option.get (min_int_opt d) and hi = Option.get (max_int_opt d) in
    (* Same sign: [hi - lo] cannot overflow. Mixed signs: [lo + hi]
       cannot, and [asr] floors so [mid < hi] even for [(-1, 0)]. *)
    let mid =
      if lo >= 0 = (hi >= 0) then lo + ((hi - lo) / 2) else (lo + hi) asr 1
    in
    (at_most mid d, at_least (mid + 1) d)
  | Enums vs ->
    let n = List.length vs / 2 in
    let rec take k = function
      | x :: rest when k > 0 ->
        let l, r = take (k - 1) rest in
        (x :: l, r)
      | rest -> ([], rest)
    in
    let l, r = take (max 1 n) vs in
    (Enums l, Enums r)

let values = function
  | (Ints _ | Bits _) as d ->
    List.concat_map (fun (a, b) -> List.init (b - a + 1) (fun i -> Int (a + i))) (to_iset d)
  | Enums vs -> List.map (fun v -> Str v) vs

let to_string = function
  | (Ints _ | Bits _) as d ->
    let part (a, b) = if a = b then string_of_int a else Printf.sprintf "%d..%d" a b in
    "{" ^ String.concat ", " (List.map part (to_iset d)) ^ "}"
  | Enums vs -> "{" ^ String.concat ", " vs ^ "}"

(** Semantic equality: the interval-set and bitset representations of
    the same integer set compare equal. *)
let equal d1 d2 =
  match (d1, d2) with
  | Ints a, Ints b -> a = b
  | Bits a, Bits b -> a.off = b.off && a.bits = b.bits
  | Enums a, Enums b -> a = b
  | (Ints _ | Bits _), (Ints _ | Bits _) -> to_iset d1 = to_iset d2
  | _ -> false
