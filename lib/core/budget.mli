(** Enumeration budgets: deadlines, result caps, memory caps, cancel.

    Maximal connected s-clique enumeration is output-polynomial but the
    output can be exponential in the graph size, so any production run
    needs a way to stop early {e without} losing the work already done.
    A [Budget.t] bundles every stop condition behind one cooperative
    protocol:

    - a wall-clock {b deadline} (monotonic, NTP-immune);
    - a {b result cap} ([max_results]);
    - a {b memory cap} on the memoized N^s balls ([max_cache_bytes],
      probed via {!Neighborhood.cache_bytes});
    - an external {b cancel token} ({!request_cancel}, tripped by the
      CLI's SIGINT handler).

    The protocol is {e sticky}: the first condition to fire records its
    {!reason} and every later check fails fast, so an enumeration winds
    down promptly and {!status} reports a single truncation cause.
    Budgets are domain-safe — one budget is shared by all workers of a
    parallel run — and the hot path is allocation-free: {!checker}
    returns a closure whose common case is one atomic load plus one
    integer decrement, with the expensive clock/probe checks amortized
    over [poll_every] calls. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Max_results  (** the result cap was reached *)
  | Max_cache_bytes  (** the N^s ball cache outgrew its byte cap *)
  | Cancelled  (** {!request_cancel} was called (e.g. SIGINT) *)

type outcome =
  | Complete  (** the enumeration ran to exhaustion: the output is everything *)
  | Truncated of reason
      (** the run stopped early; paired with a checkpoint it can be
          resumed. A run that hits [max_results] on its final result
          reports [Truncated Max_results] even if nothing else remained —
          completeness past the cap is unknowable without running on. *)

val reason_to_string : reason -> string
(** [deadline], [max-results], [max-cache-bytes], [cancelled] — the
    spellings the CLI prints and cram tests match. *)

type t

val create :
  ?deadline_s:float ->
  ?max_results:int ->
  ?max_cache_bytes:int ->
  ?cache_bytes:(unit -> int) ->
  ?poll_every:int ->
  unit ->
  t
(** [deadline_s] is {e relative} seconds from now on the monotonic clock
    ([0.] trips on the very first poll — useful for deterministic
    truncation tests); a zero [max_results] trips at creation, so a run
    under it emits nothing. [cache_bytes] is the probe [Max_cache_bytes] is
    judged against (default: constantly [0], so the cap never fires).
    [poll_every] (default [1024]) is how many {!checker} calls elapse
    between expensive polls. Omitted limits never fire; [create ()] is a
    budget that never trips on its own but can still be cancelled.
    @raise Invalid_argument on a negative limit or [poll_every < 1]. *)

val unlimited : unit -> t
(** [create ()] — fresh each call because a budget is single-run state. *)

val request_cancel : t -> unit
(** Trip the cancel token. Async-signal-safe (one atomic store): this is
    what a SIGINT handler calls. The trip is observed at the next poll. *)

val trip : t -> reason -> unit
(** Force-trip with an explicit reason. First trip wins; later calls are
    no-ops. *)

val live : t -> bool
(** [true] while nothing has tripped. One atomic load. *)

val status : t -> outcome

val poll : t -> bool
(** Full check — cancel token, deadline, cache probe — tripping the
    budget and returning [false] on the first violated limit. Safe from
    any domain. Prefer {!checker} in hot loops. *)

val checker : t -> unit -> bool
(** [checker t] is a [should_continue] closure for one worker/run: each
    call is an atomic load plus a local countdown, and every
    [poll_every]-th call (plus the very first) runs a full {!poll}.
    Each worker of a parallel run must get its {e own} closure — the
    countdown is deliberately unsynchronized. *)

val note_result : t -> unit
(** Record one emitted result; trips [Max_results] the moment the count
    reaches the cap (the capping result itself is kept). Call after the
    sink has accepted the result. *)

val preload_results : t -> int -> unit
(** Seed the result count with results streamed by an earlier,
    interrupted run — so [max_results] counts the {e total} across
    resumes, not per process.
    @raise Invalid_argument on a negative count. *)

val results : t -> int
(** Results noted so far (including any preload). *)
