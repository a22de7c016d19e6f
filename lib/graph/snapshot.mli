(** CRC-checked binary graph snapshots.

    A snapshot is the CSR representation of a {!Graph.t} written verbatim
    — magic, header, offsets record, adjacency record — so loading is a
    bulk read straight into the two backing arrays instead of a text
    parse. Each record is a {!Codec} record (payload, then its CRC-32),
    and {!save} commits through {!Codec.durable_replace}: a reader sees
    either the whole previous snapshot or the whole new one, also after a
    power loss, and a torn or bit-rotted file is refused on load rather
    than parsed as garbage.

    Byte layout (all integers little-endian):
    {v
    offset  size      field
    0       8         magic "SGRSNAP1"
    8       8         n, node count (u64)
    16      8         m, undirected edge count (u64)
    24      4         CRC-32 of bytes [8, 24)
    28      8*(n+1)   CSR offsets (u64 each)
    ...     4         CRC-32 of the offsets payload
    ...     8*2m      CSR adjacency (u64 each)
    ...     4         CRC-32 of the adjacency payload
    v}
    Trailing bytes after the adjacency CRC are an error. *)

val save : ?fault:Scoll.Fault.t -> Graph.t -> string -> unit
(** [save g path] replaces [path] with the snapshot of [g] through
    {!Codec.durable_replace}: the bytes are fsynced before the rename
    and the directory after it, so [path] holds the whole old snapshot
    or the whole new one even across a power loss. [fault] arms the
    [snapshot.write] / [snapshot.fsync] / [snapshot.rename] /
    [snapshot.dirsync] sites.
    @raise Sys_error on I/O failure. *)

val of_string : file:string -> string -> Graph.t
(** Decode a snapshot image held in memory; [file] only labels errors.
    @raise Io_error.Parse_error exactly as {!load}. *)

val load : string -> Graph.t
(** [load path] reads a snapshot back. The structural invariants are
    re-validated ({!Graph.of_csr}), so a snapshot edited by hand fails
    the same way a malformed text file would.
    @raise Io_error.Parse_error on any malformed, truncated or
    CRC-mismatching input ([line = 0]: byte offsets, not lines).
    @raise Sys_error when the file cannot be read. *)
