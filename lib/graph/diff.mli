(** CRC-checked binary edit scripts — the [SGRDIFF1] member of the
    [.sgr] snapshot family.

    A diff file records an ordered script of edge edits against a base
    graph identified by its (node count, edge count) pair, so churn
    survives restarts: journal each applied edit with {!write_edit},
    and after a crash reload the base snapshot ({!Snapshot}) and replay
    the script. Replay is {e strict} (every edit must be effective, see
    {!Overlay.apply}), so a script can never silently drift from the
    graph it was recorded against.

    Byte layout (all integers little-endian):
    {v
    offset  size  field
    0       8     magic "SGRDIFF1"
    8       8     base node count (u64)
    16      8     base edge count (u64)
    24      4     CRC-32 of bytes [8, 24)
    then per edit, repeated to end of file:
    +0      1     op: 0 = insert, 1 = delete
    +1      8     endpoint u (u64)
    +9      8     endpoint v (u64)
    +17     4     CRC-32 of the 17 payload bytes
    v}

    Unlike the {!Result_io.Stream} result sink — where a torn tail is
    tolerated and truncated away, because results are recomputable — a
    torn or CRC-mismatching diff tail is {b refused}: silently dropping
    the tail of an edit script would replay a different graph. Recovery
    from a torn journal is recomputing the script with {!between}. *)

type header = { base_n : int; base_m : int }

val magic : string

val save : base_n:int -> base_m:int -> Overlay.edit list -> string -> unit
(** Write a complete diff file through {!Codec.durable_replace}, with the
    given base-graph identity in the header. *)

val load : string -> header * Overlay.edit list
(** Read a diff file back, validating magic, CRCs, opcode bytes and
    endpoint ranges (endpoints must be in [0 .. base_n - 1], no loops).
    @raise Io_error.Parse_error on any malformed, truncated or
    CRC-mismatching input ([line = 0]: byte offsets, not lines) — a torn
    trailing record is an error, not a tolerated tail.
    @raise Sys_error when the file cannot be read. *)

val check_base : file:string -> header -> Graph.t -> unit
(** Refuse (as [Io_error.Parse_error]) a diff whose recorded base
    (n, m) does not match the given graph — the guard every consumer
    runs before a strict replay. *)

(** {2 In-memory images}

    The same byte format, decoded from / encoded to a string instead of
    a file. There is exactly one SGRDIFF1 decoder: {!load} is
    [of_string] over the slurped file, and the daemon feeds it both
    [Mutate] payloads straight off the wire and its mutation journal on
    restart — so wire, journal and disk scripts share one CRC and
    torn-tail discipline. *)

val of_string : file:string -> string -> header * Overlay.edit list
(** Decode a complete SGRDIFF1 image. [file] only labels errors (a
    path, a peer, a journal name).
    @raise Io_error.Parse_error exactly as {!load}. *)

val to_string : base_n:int -> base_m:int -> Overlay.edit list -> string
(** The complete image [load] would accept: magic, CRC'd header, one
    CRC'd record per edit. [of_string (to_string edits) = edits]. *)

val encode_header : base_n:int -> base_m:int -> string
(** The 28-byte file prefix (magic + CRC'd header) — what a journal
    starts with. *)

val encode_edit : Overlay.edit -> string
(** One 21-byte CRC'd edit record — the unit a journal appends. *)

(** {2 Incremental journal}

    An open journal appends one record per edit as churn happens. Records
    are flushed only on {!flush}/{!close}, so a crash can tear the final
    record — which {!load} then refuses, by design. *)

type writer

val open_writer : base_n:int -> base_m:int -> string -> writer
(** Create (truncate) a journal at the path and write magic + header. *)

val write_edit : writer -> Overlay.edit -> unit

val flush : writer -> unit

val close : writer -> unit
(** Flush and close. The writer must not be used afterwards. *)

(** {2 Scripts as graph deltas} *)

val between : Graph.t -> Graph.t -> Overlay.edit list
(** [between g0 g1] is a script that strictly transforms [g0] into [g1]:
    one [Delete] per edge of [g0] missing from [g1] and one [Insert] per
    edge of [g1] missing from [g0], ordered by (min endpoint, max
    endpoint). O(n + m0 + m1).
    @raise Invalid_argument when the node counts differ. *)

val apply : Graph.t -> Overlay.edit list -> Graph.t
(** Strict functional replay: overlay the script on the graph and
    {!Overlay.compact}. [apply g0 (between g0 g1)] equals [g1].
    @raise Invalid_argument on an ineffective or out-of-range edit. *)
