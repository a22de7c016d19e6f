(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).

    Integrity check for the crash-safe record stream: each record of a
    checkpoint or result file carries the CRC of its payload, so a torn
    or bit-rotted tail is detected on reload instead of being parsed as
    garbage. Table-driven, one table shared per process; the digest fits
    OCaml's immediate [int] range (always in [0, 2^32)). *)

val string : ?off:int -> ?len:int -> string -> int
(** [string s] is the CRC-32 of [s] (of the substring [off, off+len)
    when given) as a non-negative int below [2^32]. *)

val bytes : ?off:int -> ?len:int -> bytes -> int
(** Same over a [bytes] buffer. *)

(** {2 Running digests} *)

val start : int
(** The running state of the empty input. *)

val add_int32_le : int -> int -> int
(** [add_int32_le crc v] feeds the four little-endian bytes of [v]'s low
    32 bits — what [Buffer.add_int32_le] writes for [Int32.of_int v] — into
    the running state [crc]. Allocation-free. *)

val add_int32s_le : int -> int array -> off:int -> len:int -> int
(** [add_int32s_le crc a ~off ~len] feeds [a.(off) .. a.(off+len-1)]
    as {!add_int32_le} would, one after the other, and is bit-identical
    to that fold. It digests two ids per slicing-by-8 step in one call,
    so a CSR row costs one call instead of one per id. Allocation-free.
    @raise Invalid_argument when the slice is not inside [a], or when
    [crc] is outside [\[0, 2^32)] and so is no running state (where
    {!add_int32_le} raises too), even for an empty slice. *)

val finish : int -> int
(** The digest of a running state: [finish (add_int32_le start v)] is
    {!string} of [v]'s four bytes. *)
