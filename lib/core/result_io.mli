(** Serialization of enumeration results.

    The CLI's output format, round-trippable so that results can be piped
    between tools and re-certified later: one node set per line, members
    as whitespace-separated ids; [#] lines are comments. Parsing validates
    that members are distinct node ids of the graph. *)

val to_string : Sgraph.Node_set.t list -> string

val save : Sgraph.Node_set.t list -> string -> unit

val parse_string : n:int -> string -> Sgraph.Node_set.t list
(** [parse_string ~n s] reads sets of nodes of a graph on [n] nodes: a
    negative id or one of [n] or more is malformed input.
    @raise Failure with a line-numbered message on malformed input. *)

val load : n:int -> string -> Sgraph.Node_set.t list
(** {!parse_string} on the file's contents.
    @raise Sys_error when the file cannot be read.
    @raise Failure on malformed input. *)

(** Crash-safe append-only record stream — the on-disk format behind
    [--checkpoint] result streaming and checkpoint files.

    Byte layout: the 7-byte magic ["SCLQS1\n"], then zero or more
    {!Sgraph.Codec} frames [u32le payload length | u32le CRC-32 of
    payload | payload]. A record becomes durable the instant its last
    byte hits the disk; a process killed mid-write leaves a {e torn tail}
    (short header, bogus length, CRC mismatch) which
    {!Stream.read_records} detects, drops, and reports as [`Torn] —
    everything before it is trusted. This is the one format whose torn
    tail is tolerated ([format.torn = Tolerate]). *)
module Stream : sig
  val format : Sgraph.Codec.format

  val magic : string

  val max_record_len : int
  (** Hard ceiling on one record's payload length: a corrupt length word
      in a torn file must never drive a giant allocation. *)

  val encode_record : string -> string
  (** The raw framing of one record ({!Sgraph.Codec.frame}) — the exact
      bytes {!write_record} appends.
      @raise Invalid_argument on a payload above {!max_record_len}. *)

  type writer

  val open_writer : ?fault:Scoll.Fault.t -> string -> writer
  (** Create or truncate [path] and write the magic. [fault] arms the
      [stream.write] / [stream.flush] / [stream.fsync] injection sites. *)

  val open_append : ?fault:Scoll.Fault.t -> string -> clean_len:int -> writer
  (** Reopen an existing stream for appending after truncating it to
      [clean_len] bytes — the clean-prefix length returned by
      {!read_records} — so a torn tail from a crashed run is cut off
      before new records land. Falls back to {!open_writer} when the file
      is missing or [clean_len] does not even cover the magic. *)

  val open_resume : ?fault:Scoll.Fault.t -> from:string -> string -> records:int -> writer
  (** [open_resume ~from path ~records] opens [path] to continue the
      stream [from], of which a checkpoint vouches for [records]
      records. The new stream holds exactly the first [records] intact
      records of [from], then whatever is appended. With [from = path]
      the file is truncated in place, dropping later records (a crashed
      run's output past its last checkpoint) and any torn tail;
      otherwise those records are copied to [path], replacing what was
      there. A missing file holds no records.
      @raise Sgraph.Io_error.Parse_error when [from] holds fewer than
      [records] intact records: the checkpoint names results that never
      reached the disk.
      @raise Sys_error when a file cannot be read or written. *)

  val write_record : writer -> string -> unit
  (** Append one record. Not flushed — see {!flush}.
      @raise Scoll.Fault.Injected when the armed fault fires. *)

  val write_set : writer -> Sgraph.Node_set.t -> unit
  (** [write_record] of {!encode_set}. *)

  val flush : writer -> unit

  val close : writer -> unit
  (** Flush, fsync and close, so that a checkpoint or index saved after
      [close] never names a record that is not on disk. Idempotent; the
      file is closed even when the flush, the fsync or the
      [stream.fsync] fault raises.
      @raise Sys_error when the fsync fails.
      @raise Scoll.Fault.Injected when the armed fault fires. *)

  val read_records : string -> string list * int * [ `Clean | `Torn ]
  (** [read_records path] is [(payloads, clean_len, tail)]: every intact
      record in order, the byte length of the intact prefix, and whether
      a torn tail was dropped. A file that is a proper prefix of the
      magic is a torn empty stream.
      @raise Sys_error when the file cannot be read.
      @raise Sgraph.Io_error.Parse_error when the file does not start
      with the magic (it is not a stream at all, as opposed to a torn
      one). *)

  val records_of_string : file:string -> string -> string list * int * [ `Clean | `Torn ]
  (** {!read_records} over an image held in memory; [file] only labels
      errors. *)

  val encode_set : Sgraph.Node_set.t -> string
  (** The members' decimal ids, ascending, joined by single spaces. The
      digits are written straight into one buffer; no token list is
      built. *)

  val decode_set : ?file:string -> string -> Sgraph.Node_set.t
  (** The set a payload names. A payload {!encode_set} could have
      written (ASCII digits and single spaces) is parsed in one pass
      with no token list; anything else goes through the general
      tokenizer, which splits on spaces, skips empty tokens, reads each
      token with [int_of_string_opt] (so [+5], [007], [0x1f] and [1_0]
      are ids) and sorts and deduplicates the ids.
      @raise Sgraph.Io_error.Parse_error naming [file] (default
      ["<string>"]) on a token that is not a non-negative integer.
      Possible only for hand-built files: CRC-validated records from
      this writer always decode. *)

  val read_results : string -> Sgraph.Node_set.t list * [ `Clean | `Torn ]
  (** {!read_records} + {!decode_set}.
      @raise Sgraph.Io_error.Parse_error as both do. *)
end

(** The [SCLQIDX1] root→results index — a CRC'd sidecar beside a
    root-grouped result stream, mapping every root to its branch
    fingerprint ({!Neighborhood.root_fingerprint}) and the byte extent of
    its records in the stream. It is what makes refresh sublinear at the
    file level: stored fingerprints decide which roots to re-run without
    touching the before-graph, and {!Index.splice} rewrites a stream by
    copying unchanged extents verbatim — seek-and-patch instead of
    load-sort-partition-merge.

    Unlike the stream, the index is refused outright on {e any}
    corruption — truncation, byte flip, or disagreement with the
    stream's byte length — with a typed [Sgraph.Io_error.Parse_error]:
    it is derived data, so a refusal costs one {!Index.build}, while a
    trusted half-written index would patch bytes into the wrong
    extents. *)
module Index : sig
  val magic : string

  type entry = {
    fingerprint : int;  (** branch fingerprint on the indexed graph *)
    offset : int;  (** byte offset of the root's first record, from file start *)
    extent : int;  (** total bytes of the root's records; [0] = no results *)
    count : int;  (** number of result records for the root *)
  }

  type t = {
    stream_len : int;
        (** byte length of the (clean) stream this index describes;
            {!splice} and consumers refuse a stream whose size differs *)
    s : int;
    entries : entry array;  (** [entries.(root)], one per root *)
  }

  val n : t -> int
  (** Number of roots ([Array.length entries]). *)

  val path_for : string -> string
  (** The sidecar path convention: [STREAM.idx]. *)

  val to_string : t -> string

  val of_string : file:string -> string -> t
  (** Strict decode.
      @raise Sgraph.Io_error.Parse_error on any corruption. *)

  val save : t -> string -> unit
  (** Through {!Sgraph.Codec.durable_replace}: the whole old index or the
      whole new one, also across a power loss. *)

  val load : string -> t
  (** @raise Sgraph.Io_error.Parse_error on any corruption.
      @raise Sys_error when the file cannot be read. *)

  val build : s:int -> n:int -> fingerprint:(int -> int) -> string -> t
  (** [build ~s ~n ~fingerprint path] scans a clean root-grouped stream
      (ascending or any root-contiguous order — parallel streams commit
      roots in retirement order) and records every root's extent;
      [fingerprint] supplies the branch digest for each of the [n] roots
      (including rootless ones, so a later refresh never needs the
      before-graph).
      @raise Sgraph.Io_error.Parse_error when the stream is torn, not
      root-grouped, or contains a record no root-decomposed run could
      have written. *)

  type splice_stats = {
    roots_patched : int;
    fresh_bytes : int;  (** bytes newly encoded for patched roots *)
    copied_bytes : int;  (** bytes copied verbatim, never decoded *)
  }

  val splice :
    old_stream:string ->
    index:t ->
    patched:(int * int * Sgraph.Node_set.t list) list ->
    out:string ->
    t * splice_stats
  (** [splice ~old_stream ~index ~patched ~out] writes a new stream at
      [out] (atomically, so [out = old_stream] is fine) equal to the old
      one with each patched root's records replaced: [patched] lists
      [(root, new fingerprint, new results)] for exactly the roots a
      refresh re-ran (an empty result list drops the root). Every other
      root's bytes are copied by extent without decoding, output is
      normalized to ascending-root order, and the updated index is saved
      at [path_for out] and returned. Both files are written through
      {!Sgraph.Codec.durable_replace}.
      @raise Sgraph.Io_error.Parse_error when the index is stale (the
      old stream's size changed).
      @raise Invalid_argument on an out-of-range or duplicate patched
      root. *)
end
