(** The one framing implementation behind every binary format, and the
    one durable writer behind every atomic save.

    [SGRSNAP1] snapshots, [SGRDIFF1] edit scripts and journals,
    [SCLQIDX1] result indexes, [SCLQS1] result streams and checkpoints,
    and [SCLQRPC1] wire frames share a leading magic, little-endian
    integers, CRC-32 ({!Scoll.Crc32}) records in one of two shapes, and
    one error type:

    - a {e record} is its payload, then the u32le CRC-32 of the payload;
      the payload length is fixed by the format (snapshots, diffs,
      indexes);
    - a {e frame} is a u32le payload length, the u32le CRC-32, then the
      payload; the length is checked against the format's ceiling before
      anything is allocated (streams, checkpoints, the wire).

    Decoders walk a {!cursor} over an in-memory image and raise {!Error};
    {!decode} turns that into the [Io_error.Parse_error] every file
    loader promises, worded by the format. Every check a decoder needs —
    magic, CRC, truncation, length ceilings, trailing bytes, u64 range —
    is made here, once. *)

(** {1 Formats} *)

(** What a cut or corrupt record in a run of records means. Fixed per
    format, never chosen by a caller. *)
type torn_tail =
  | Tolerate
      (** the records before it are the answer, and the cut is reported
          as a torn tail — [SCLQS1] result streams, where a crash
          mid-write is expected and results are recomputable *)
  | Refuse  (** an error — every other format *)

type format = {
  magic : string;
  name : string;  (** prefix of every refusal, e.g. ["snapshot"] *)
  title : string;  (** what an input with the wrong magic is not, e.g. ["a snapshot"] *)
  max_frame : int;  (** ceiling on a frame's payload length; [0] when the format has no frames *)
  torn : torn_tail;
}

(** {1 Errors} *)

type error =
  | Bad_magic of string  (** the bytes found where the magic belongs *)
  | Truncated of string  (** the input ended inside the named unit *)
  | Oversized of int  (** a frame length word above the format's [max_frame] *)
  | Crc_mismatch of { what : string; stored : int; computed : int }
  | Out_of_range of { what : string; value : int64 }
      (** a u64 field that does not fit an OCaml [int] *)
  | Trailing  (** bytes after the last record *)

exception Error of error

val decode : format -> file:string -> (unit -> 'a) -> 'a
(** [decode fmt ~file f] runs a decoder body: {!Error} becomes
    [Io_error.Parse_error] ([line = 0]) worded by the format, e.g.
    ["snapshot truncated reading offsets"], and any other stray
    exception is converted by [Io_error.structured]. *)

(** {1 Encoding} *)

val record : (bytes -> unit) -> bytes -> unit
(** [record emit payload] emits the payload, then its CRC-32 — to a
    channel ([output_bytes oc]) or a buffer ([Buffer.add_bytes b])
    without copying the payload. *)

val frame : format -> string -> string
(** Length, CRC-32, then the payload.
    @raise Invalid_argument above the format's [max_frame]. *)

(** {1 Decoding} *)

type cursor
(** A read position over an immutable byte image, bounded by a limit:
    the whole image, or one record's payload. *)

val cursor : ?pos:int -> string -> cursor
(** A cursor over the whole string, starting at [pos] (default 0). *)

val pos : cursor -> int

val need : cursor -> int -> string -> unit
(** [need c len what] refuses ([Truncated what]) unless [len] more bytes
    remain — the check to make before a count drives an allocation. *)

val magic : format -> cursor -> unit
(** Consume the format's magic. An input that is a proper prefix of the
    magic is [Truncated "magic"]; anything else that differs is
    [Bad_magic]. *)

val read_record : cursor -> int -> string -> cursor
(** [read_record c len what] consumes a [len]-byte payload and its CRC,
    and returns a cursor over exactly the verified payload. *)

val frame_length : format -> string -> int -> int
(** The payload length in the frame header at this offset (which must
    hold four bytes), refused as [Oversized] above [max_frame] — so a
    reader can check it before reading or allocating the payload. *)

val read_frame : format -> cursor -> string
(** Consume one frame and return its verified payload. *)

val records : format -> cursor -> (cursor -> 'a) -> 'a list * int * [ `Clean | `Torn ]
(** [records fmt c read] applies [read] until the input ends, returning
    the decoded records, the byte length of the intact prefix, and
    whether a torn tail was dropped. A framing error inside a record
    ({!Truncated}, {!Oversized}, {!Crc_mismatch}) is handled by the
    format's {!torn_tail}: [Tolerate] stops there with [`Torn], [Refuse]
    raises it. *)

val u8 : cursor -> string -> int
val u16 : cursor -> string -> int
val u32 : cursor -> string -> int

val u64 : cursor -> string -> int
(** Refused as [Out_of_range] when it does not fit an OCaml [int]. *)

val u64s : cursor -> int -> string -> int array
(** [u64s c count what] decodes [count] consecutive u64 fields in one
    call, each range-checked as {!u64}. *)

val f64 : cursor -> string -> float

val string : cursor -> int -> string -> string
(** [string c len what] consumes [len] raw bytes. *)

val finish : cursor -> unit
(** Refuse ([Trailing]) unless the cursor is at its limit. *)

(** {1 Files} *)

val read_file : string -> string
(** The whole file, as decoders take it.
    @raise Sys_error when it cannot be read. *)

val durable_replace :
  ?fault:Scoll.Fault.t -> site:string -> string -> (out_channel -> unit) -> unit
(** [durable_replace ~site path write] replaces [path] with the bytes
    [write] puts on the channel, so that [path] holds either all of its
    old bytes or all of the new ones, also across a power loss: [write]
    fills [path ^ ".tmp"], which is fsynced, renamed over [path], and
    then the directory is fsynced. The rename is issued only after the
    new bytes are on the device, and the call returns only after the
    rename is.

    [fault] checks four injection sites, named after [site]:
    [SITE.write] (temp file created, nothing written), [SITE.fsync]
    (written, not yet fsynced), [SITE.rename] (fsynced, not renamed)
    and [SITE.dirsync] (renamed, directory not fsynced). A fault at the
    first three leaves [path] untouched; at the last, [path] already
    holds the new bytes. These sites prove the order of operations; they
    cannot prove that the device honours fsync.
    @raise Sys_error on any I/O failure, with [path] old or new. *)
