(** Resumable enumeration checkpoints.

    When a budget trips ({!Budget.outcome} [Truncated]), the enumerators
    can describe exactly where they stopped, in one of three shapes:

    - {b Roots}: for the root-partitioned algorithms (CSCliques1/2 and
      the parallel runner) — the set of root nodes whose entire subtree
      has been explored {e and} whose results were all streamed. A resume
      re-runs only the remaining roots; root-level partitioning
      guarantees no overlap with what was already emitted.
    - {b Pd_frontier}: for PolyDelayEnum — the registered-set index plus
      the unprocessed queue. Everything in [index] minus [queue] has been
      emitted; a resume re-registers the index and continues dequeuing.
    - {b Brute_mask}: for the brute-force oracle — the next subset mask
      to test in its descending scan.

    Checkpoints are written in the {!Result_io.Stream} record format
    through {!Sgraph.Codec.durable_replace}, so a crash or power loss
    during {!save} leaves the previous checkpoint intact; {!load} refuses
    torn or truncated files outright (they cannot result from a completed
    [save]), although the stream format itself tolerates a torn tail. *)

type state =
  | Roots of { retired : int list }
  | Pd_frontier of { index : Sgraph.Node_set.t list; queue : Sgraph.Node_set.t list }
  | Brute_mask of { next_mask : int }

type t = {
  algorithm : string;  (** provenance label, e.g. ["CSCliques2"] *)
  s : int;
  n : int;  (** graph fingerprint: node count… *)
  m : int;  (** …and edge count *)
  min_size : int;
  emitted : int;  (** results streamed before the interruption *)
  state : state;
}

val family : state -> string
(** ["roots"], ["pd"] or ["brute"] — the tag that decides which
    algorithms may resume this checkpoint. *)

val save : ?fault:Scoll.Fault.t -> t -> string -> unit
(** Replace the file through {!Sgraph.Codec.durable_replace}. [fault]
    arms its [ckpt.write], [ckpt.fsync], [ckpt.rename] and [ckpt.dirsync]
    injection sites; a fault before the rename leaves the previous
    checkpoint at the path untouched (a leftover temp file is
    overwritten by the next save).
    @raise Scoll.Fault.Injected when an armed fault fires.
    @raise Sys_error on real I/O failure. *)

val load : string -> t
(** @raise Sys_error when the file cannot be read.
    @raise Sgraph.Io_error.Parse_error naming the file on a corrupt,
    torn, or non-checkpoint file. *)

val of_string : file:string -> string -> t
(** {!load} over an image held in memory; [file] only labels errors. *)

val check_compat : t -> s:int -> n:int -> m:int -> min_size:int -> unit
(** Refuse to resume against a different graph or different enumeration
    parameters — silently mixing them would produce output that belongs
    to no single run.
    @raise Failure naming the first mismatched field. *)
