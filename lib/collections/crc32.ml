(* Reflected CRC-32, polynomial 0xEDB88320 (IEEE). Digesting uses
   slicing-by-8: eight 256-entry tables let one loop iteration consume
   eight input bytes with a single carried dependency, several times
   faster than the classic byte-at-a-time loop on the megabyte payloads
   the snapshot format guards. The digest is identical to the
   byte-at-a-time definition. All arithmetic stays within 32 bits, so
   the digest is an immediate int on 64-bit OCaml. *)

let tables =
  let t = Array.make_matrix 8 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  (* t.(k).(n) is the CRC contribution of byte n sitting k bytes before
     the end of an 8-byte group *)
  for k = 1 to 7 do
    for n = 0 to 255 do
      let p = t.(k - 1).(n) in
      t.(k).(n) <- t.(0).(p land 0xFF) lxor (p lsr 8)
    done
  done;
  t

let t0 = tables.(0)
let t1 = tables.(1)
let t2 = tables.(2)
let t3 = tables.(3)
let t4 = tables.(4)
let t5 = tables.(5)
let t6 = tables.(6)
let t7 = tables.(7)

let digest_bytes b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32: substring out of bounds";
  let crc = ref 0xFFFFFFFF in
  let i = ref off in
  let fin = off + len in
  (* SAFETY: the range check above keeps every byte index in both loops
     inside [off, off+len) and thus inside b; every table index is
     masked to 0..255 against the 256-entry tables *)
  while fin - !i >= 8 do
    let j = !i in
    let b0 = Char.code (Bytes.unsafe_get b j)
    and b1 = Char.code (Bytes.unsafe_get b (j + 1))
    and b2 = Char.code (Bytes.unsafe_get b (j + 2))
    and b3 = Char.code (Bytes.unsafe_get b (j + 3))
    and b4 = Char.code (Bytes.unsafe_get b (j + 4))
    and b5 = Char.code (Bytes.unsafe_get b (j + 5))
    and b6 = Char.code (Bytes.unsafe_get b (j + 6))
    and b7 = Char.code (Bytes.unsafe_get b (j + 7)) in
    let c = !crc lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    crc :=
      Array.unsafe_get t7 (c land 0xFF)
      lxor Array.unsafe_get t6 ((c lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((c lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((c lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 b4
      lxor Array.unsafe_get t2 b5
      lxor Array.unsafe_get t1 b6
      lxor Array.unsafe_get t0 b7;
    i := j + 8
  done;
  while !i < fin do
    crc :=
      Array.unsafe_get t0 ((!crc lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF

let bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  digest_bytes b off len

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  (* SAFETY: digest_bytes only reads its buffer, so viewing the
     immutable string as bytes without a copy cannot mutate it *)
  digest_bytes (Bytes.unsafe_of_string s) off len

(* Running digests for callers that produce their input a few bytes at a
   time: the state is the CRC register before the final inversion, and
   one 4-byte step is slicing-by-8's step over a 4-byte group. *)
let start = 0xFFFFFFFF

let add_int32_le crc v =
  let c = crc lxor (v land 0xFFFFFFFF) in
  t3.(c land 0xFF)
  lxor t2.((c lsr 8) land 0xFF)
  lxor t1.((c lsr 16) land 0xFF)
  lxor t0.(c lsr 24)

(* A slice of ids, two per step: the 8 bytes of a pair are one
   slicing-by-8 group, the same step [digest_bytes] takes, and an odd id
   out takes [add_int32_le]'s 4-byte step. *)
let add_int32s_le crc (a : int array) ~off ~len =
  if off < 0 || len < 0 || off > Array.length a - len then
    invalid_arg "Crc32.add_int32s_le: slice out of bounds";
  if crc land lnot 0xFFFFFFFF <> 0 then
    invalid_arg "Crc32.add_int32s_le: running state outside [0, 2^32)";
  let crc = ref crc and i = ref off in
  let fin = off + len in
  (* SAFETY: the range check above keeps !i and !i + 1 inside
     [off, off+len) and thus inside a. Every table index is below 256
     against the 256-entry tables: the ones masked with 0xFF directly,
     and the [lsr 24] of c and y because both are below 2^32 -- y is
     masked, and c is the running state (checked above on entry, and a
     xor of table entries, all below 2^32, after each step) xor a masked
     id *)
  while fin - !i >= 2 do
    let j = !i in
    let c = !crc lxor (Array.unsafe_get a j land 0xFFFFFFFF)
    and y = Array.unsafe_get a (j + 1) land 0xFFFFFFFF in
    crc :=
      Array.unsafe_get t7 (c land 0xFF)
      lxor Array.unsafe_get t6 ((c lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((c lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (c lsr 24)
      lxor Array.unsafe_get t3 (y land 0xFF)
      lxor Array.unsafe_get t2 ((y lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((y lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (y lsr 24);
    i := j + 2
  done;
  if !i < fin then add_int32_le !crc a.(!i) else !crc

let finish crc = crc lxor 0xFFFFFFFF
