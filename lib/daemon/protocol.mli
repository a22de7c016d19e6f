(** SCLQRPC1 — the daemon's length-prefixed, CRC-checked wire protocol.

    A connection opens with both ends sending the 8-byte magic
    ["SCLQRPC1"]. Everything after is a stream of {e frames} in the exact
    byte framing of the [SCLQS1] result stream
    ([u32le payload length | u32le CRC-32 of payload | payload]): both
    are {!Sgraph.Codec} frames, so one encoder, one decoder and one fuzz
    surface cover the on-disk and on-wire formats. A frame payload's
    first byte is an opcode; clients send {!request} payloads, the daemon
    answers with {!response} payloads, and both are read through the
    codec's cursor.

    Decoding is strict and total: any byte sequence either decodes or
    raises {!Error} with a typed {!error} — truncation at every boundary,
    oversized length prefixes, CRC mismatches, unknown opcodes and
    trailing garbage are all distinguished, and no other exception
    escapes the decoders. That property is what the byte-level fuzz suite
    in [test_daemon.ml] pins down. *)

type error =
  | Bad_magic of string  (** the peer's 8 connection-opening bytes *)
  | Truncated of string  (** EOF or short buffer inside the named unit *)
  | Oversized of int  (** frame length prefix above {!max_payload} *)
  | Crc_mismatch  (** frame payload does not match its CRC-32 *)
  | Bad_opcode of int  (** unknown payload opcode byte *)
  | Bad_payload of string  (** opcode-specific field malformed, or trailing garbage *)

exception Error of error

val error_to_string : error -> string

val magic : string
(** ["SCLQRPC1"] — 8 bytes, sent by both ends before any frame. *)

val max_payload : int
(** Hard per-frame payload ceiling (64 MiB): a corrupt or hostile length
    word must never drive a giant allocation. Below the [SCLQS1] record
    ceiling, so every protocol frame is also a valid stream record. *)

(** Which enumeration engine a query runs: one of the sequential
    {!Scliques_core.Enumerate.algorithm}s, or the work-stealing parallel
    pool over the CS2 family. *)
type engine = Alg of Scliques_core.Enumerate.algorithm | Par

type query = {
  q_id : int;  (** client-chosen, echoed on every response to this query *)
  q_engine : engine;
  q_graph : string;  (** preloaded graph name on the daemon *)
  q_s : int;
  q_min_size : int;
  q_deadline_s : float option;  (** per-query budget: seconds from admission *)
  q_max_results : int option;
  q_resume : Scliques_core.Checkpoint.state option;
      (** token from a previous truncated query's [Done] *)
}

type mutate = {
  m_id : int;  (** client-chosen, echoed on the ack / refusal *)
  m_graph : string;  (** preloaded graph name on the daemon *)
  m_script : string;
      (** a complete [SGRDIFF1] image ({!Sgraph.Diff.to_string}) whose
          header names the graph's {e current} (n, m) — the daemon
          decodes it with the same strict {!Sgraph.Diff.of_string} that
          reads disk scripts and journals, so wire and disk share one
          CRC/truncation discipline *)
}

type request =
  | Query of query
  | Mutate of mutate
      (** apply an edit script to a graph and journal it durably *)
  | Reload of { rl_id : int; rl_graph : string }
      (** hot-swap the graph from its source snapshot (sessions and
          in-flight queries survive on their pinned epoch) *)
  | Cancel of int
  | Hello of { h_token : string }
      (** fire-and-forget (no response, like [Cancel]): names the client
          identity this connection's quota accounting should bill.
          Connections sharing a token share one token bucket — and keep
          it across reconnects, so dropping a throttled connection and
          redialing no longer mints a fresh quota. Anonymous connections
          are billed by peer address (TCP) or per-session (Unix
          sockets, which carry no usable address). *)
  | List_graphs
  | Ping

type done_info = {
  d_id : int;
  d_outcome : Scliques_core.Budget.outcome;
  d_emitted : int;  (** result frames streamed by this query *)
  d_resume : Scliques_core.Checkpoint.state option;
      (** present exactly when truncated and the engine can resume *)
}

type error_code = Bad_request | Server_error

type graph_info = {
  g_name : string;
  g_n : int;
  g_m : int;
  g_epoch : int;  (** edits applied since load — the serving epoch *)
}

type response =
  | Result of int * string
      (** one maximal connected s-clique: the query id and the
          space-separated member ids ({!Scliques_core.Result_io.Stream.encode_set}) *)
  | Done of done_info
  | Busy of { b_id : int; b_running : int; b_queued : int }
      (** the scheduler's global backlog refused the query; retry later *)
  | Retry_after of { ra_id : int; ra_seconds : float }
      (** the {e per-client} quota refused the request; [ra_seconds] is
          how long until the token bucket admits it — sleep that long
          instead of hammering *)
  | Mutated of { mu_id : int; mu_epoch : int; mu_edits : int; mu_n : int; mu_m : int }
      (** mutation ack, sent only {e after} the journal append was
          flushed: the new epoch, the number of edits applied, and the
          resulting graph size *)
  | Reloaded of { rl_id : int; rl_epoch : int; rl_n : int; rl_m : int }
      (** reload ack: the fresh graph's epoch and size *)
  | Error_resp of { e_id : int; e_code : error_code; e_msg : string }
      (** [e_id] is 0 when the failure was not tied to a query *)
  | Graphs of graph_info list
  | Pong

(** {2 Payload codecs} — pure string functions, the fuzz surface. *)

val encode_request : request -> string
val encode_response : response -> string
(** @raise Invalid_argument on an integer field outside its wire range
    (a u32 below 0 or at least 2{^32}), before anything is sent. *)

val decode_request : string -> request
(** @raise Error on any malformed payload — and nothing else. *)

val decode_response : string -> response
(** @raise Error on any malformed payload — and nothing else. *)

(** {2 Frame layer} *)

val encode_frame : string -> string
(** Wrap a payload in the [u32le len | u32le crc | payload] framing.
    @raise Invalid_argument above {!max_payload}. *)

val decode_frame : string -> pos:int -> string * int
(** Decode one frame at [pos] of a byte buffer; returns the payload and
    the position after the frame.
    @raise Error ([Truncated]/[Oversized]/[Crc_mismatch]) on anything a
    torn write, bit flip, or hostile peer can produce. *)

(** {2 Channel I/O} *)

val output_magic : out_channel -> unit

val input_magic : in_channel -> unit
(** @raise Error ([Bad_magic]/[Truncated]) unless the peer leads with
    {!magic}. *)

val output_frame : out_channel -> string -> unit
(** Buffered write of {!encode_frame}; the caller flushes. *)

val input_frame : in_channel -> string option
(** Read one frame; [None] on a clean EOF at a frame boundary.
    @raise Error on a torn frame (EOF mid-frame), oversized length or CRC
    mismatch. *)
