(** CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8.

    Journal records are framed with a CRC over their payload so recovery
    can tell a torn or bit-flipped record from a good one. Pure OCaml —
    the container must not need zlib bindings. Eight bytes are folded
    per step through eight 256-entry tables (stored back to back in one
    array); the tail shorter than eight bytes goes bytewise through the
    first table, which is the classic one-byte-at-a-time table. *)

(* Built at module initialisation: verdict-cache appends run on worker
   domains, and a lazy table forced by two at once raises. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  (* table k advances a byte followed by k zero bytes *)
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(** CRC-32 of [len] bytes of [s] from [pos], as a non-negative int below
    2^32. The loop body is written out by hand (table [k] starts at
    [k * 256]) so that no closure is allocated per call. *)
let substring s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.substring";
  let t = tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let x =
      !c
      lxor (Char.code (String.unsafe_get s j)
           lor (Char.code (String.unsafe_get s (j + 1)) lsl 8)
           lor (Char.code (String.unsafe_get s (j + 2)) lsl 16)
           lor (Char.code (String.unsafe_get s (j + 3)) lsl 24))
    in
    c :=
      Array.unsafe_get t (1792 + (x land 0xff))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (x lsr 24))
      lxor Array.unsafe_get t (768 + Char.code (String.unsafe_get s (j + 4)))
      lxor Array.unsafe_get t (512 + Char.code (String.unsafe_get s (j + 5)))
      lxor Array.unsafe_get t (256 + Char.code (String.unsafe_get s (j + 6)))
      lxor Array.unsafe_get t (Char.code (String.unsafe_get s (j + 7)));
    i := j + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** CRC-32 of [s], as a non-negative int below 2^32. *)
let string s = substring s 0 (String.length s)
