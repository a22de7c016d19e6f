(** The s-clique query daemon: concurrent [SCLQRPC1] serving over a
    Unix-domain or TCP socket, with live wire-level mutations.

    A server preloads named graphs (the CLI loads [.sgr] snapshots),
    listens on one socket, and answers each connection on its own
    thread. [Query] requests are admitted through the {!Scheduler} —
    bounded backlog, one fair round-robin lane per connection — and
    execute on its shared pool of worker domains, streaming one
    [Result] frame per maximal connected s-clique and a terminal [Done]
    (outcome + resume token) through the session's frame-atomic writer.

    {2 Epoch-pinned serving}

    Each graph is an {e epoch-tracked cell}: an immutable CSR plus the
    per-[s] warm N{^s} ball caches ({!Scliques_core.Neighborhood.Shared})
    built against exactly that CSR. A query pins the cell it was
    admitted under, for its whole lifetime — so a [Mutate] or [Reload]
    that lands mid-enumeration never changes a running query's answer;
    the query finishes against its pinned epoch, and the old cell (with
    its warm caches) is reclaimed by the GC once the last pin drops.
    [Mutate] applies a strict [SGRDIFF1] script atomically (all edits or
    none, with inverse-edit rollback), then installs a successor cell
    whose caches carry forward every ball outside the edits' radius-[s]
    locality ({!Scliques_core.Neighborhood.Shared.advance}). The epoch
    number is the count of edits applied since the graph was loaded —
    stable across restarts, because it is exactly what the journal
    replays.

    {2 Durability}

    With [~state_dir], every accepted [Mutate] is appended to a
    per-graph CRC'd [SGRDIFF1] journal and [fsync]ed {e before} the
    [Mutated] ack — a crash after the ack can never lose an
    acknowledged edit, and a crash before it leaves a journal whose
    strict replay ({!Sgraph.Diff}: torn tails refused) reproduces a
    well-defined epoch. On restart the state dir wins over the graphs
    passed to {!create}: the base snapshot of the live generation is
    loaded and its journal replayed. Once a graph's overlay delta
    crosses [compact_threshold] edits, the journal is folded into a new
    generation (snapshot + empty journal, switched by a manifest). Base
    snapshots and manifests are written through
    {!Sgraph.Codec.durable_replace}, so a power loss leaves the old
    generation or the new one, never a manifest naming unwritten data;
    the [snapshot.*] and [manifest.*] fault sites of that writer are
    armed from [fault].

    {2 Admission}

    Per-client token-bucket {!Quota}s (queries, and mutation bytes) sit
    in front of the scheduler's global backlog: a client over its quota
    is refused with a typed [Retry_after] carrying an honest wait, and
    its siblings' throughput is unaffected. Refused or aborted
    admissions refund their tokens.

    Failure containment remains the design invariant: a malformed
    request, a client that disconnects mid-stream (or mid-mutation), a
    blocked or broken socket write, or an injected {!Scoll.Fault} at
    [daemon.accept] / [daemon.write] / [daemon.flush] /
    [daemon.mutate.journal] / [daemon.mutate.flush] / [daemon.reload]
    degrades to a per-request error or a dead session — the daemon
    itself, its worker pool and its sibling queries keep running; the
    dead session's budgets are cancelled, its scheduler lane retired,
    its epoch pins released and its quota tokens refunded, so nothing
    leaks (the [pinned] and cache-ledger checks in [test_daemon.ml]
    assert exactly this). A fault between the journal append and the
    ack truncates the journal back to the acked prefix, so the disk
    image is always a prefix of the acked history. *)

type addr =
  | Unix_socket of string  (** path; a stale socket file is replaced *)
  | Tcp of string * int  (** host, port; port [0] picks a free one *)

type t

val create :
  ?workers:int ->
  ?max_queue:int ->
  ?par_workers:int ->
  ?cache_capacity:int ->
  ?compact_threshold:int ->
  ?quota:Quota.config ->
  ?state_dir:string ->
  ?sources:(string * (unit -> Sgraph.Graph.t)) list ->
  ?fault:Scoll.Fault.t ->
  graphs:(string * Sgraph.Graph.t) list ->
  addr ->
  t
(** Bind, listen, spawn [workers] (default 2) query domains and the
    accept thread; returns once the socket accepts connections.
    [max_queue] (default 16) bounds admitted-but-not-running queries —
    past it, submission answers [Busy]. [par_workers] (default 1) is the
    domain count a [Par]-engine query runs on, its scheduler worker
    included, so the daemon may hold [1 + workers * par_workers]
    domains. [cache_capacity] bounds each shared ball cache.
    [compact_threshold] (default 1024) is the overlay delta size past
    which a mutation folds the journal into a fresh generation. [quota]
    arms per-client admission buckets (default: unlimited). [state_dir]
    makes mutations durable (see above); graph names must then be plain
    file-name stems ([A-Za-z0-9._-]). [sources] maps graph names to
    loader thunks that [Reload] re-reads — a graph without one reloads
    as a journal fold of its current state. [fault] arms the injection
    sites listed above.
    @raise Invalid_argument on an empty or duplicate-name graph list, a
    graph name longer than the wire's u16 length field (or not
    persistable under [state_dir]), or bad limits ([workers] or
    [par_workers] below 1, a negative [max_queue], or
    [1 + workers * par_workers] past {!Scliques_core.Parallel.max_domains})
    — all checked before any state file or socket is made.
    @raise Unix.Unix_error when the socket cannot be bound.
    @raise Sgraph.Io_error.Parse_error when [state_dir] holds a corrupt
    manifest, base snapshot, or journal (a torn journal tail refuses to
    start — recover by truncating the journal to a record boundary or
    removing the graph's state). *)

val addr : t -> addr

val port : t -> int
(** The bound TCP port ([Tcp (_, 0)] resolves to the kernel's pick);
    [0] for a Unix socket. *)

type stats = {
  running : int;  (** queries executing on a worker domain right now *)
  queued : int;  (** admitted queries waiting for a worker *)
  sessions : int;  (** live client connections *)
  live_queries : int;
      (** queries admitted and not yet answered with a terminal frame —
          running, queued, or streaming; [0] when the daemon is idle *)
}

val stats : t -> stats

val store :
  t -> graph:string -> s:int -> Scliques_core.Neighborhood.Shared.store option
(** The {e current} epoch's shared N{^s} ball cache for [(graph, s)] —
    [None] until a query of the current epoch created it. The fault
    drill uses this to check the weight ledger after sessions die
    mid-query. *)

val graph_epoch : t -> graph:string -> int option
(** The serving epoch: edits applied since load. [None] for an unknown
    graph. *)

val pinned : t -> graph:string -> int option
(** Queries currently holding an epoch pin on the graph — the teardown
    ledger; [Some 0] when the daemon is idle. [None] for an unknown
    graph. *)

val reload : t -> graph:string -> (int * int * int, string) result
(** Hot-swap one graph, returning [(epoch, n, m)]. With a [sources]
    loader: re-read it and serve the result at epoch 0 with cold caches
    (and, under [state_dir], persist it as a fresh generation {e
    before} the swap — a failed load or persist leaves the graph
    exactly as it was). Without one: fold the journal into a fresh
    generation without changing the serving graph. Sessions survive,
    and queries already admitted finish on their pinned epoch. Also
    reachable over the wire ([Reload]) and via SIGHUP in the daemon
    binary. *)

val reload_all : t -> (string * (int * int * int, string) result) list
(** {!reload} every graph, in listing order. *)

val stop : ?drain:bool -> t -> unit
(** Shut down: stop accepting, refuse new submissions, abort queued
    queries (each is answered with a cancelled [Done]), then wait for
    the running queries to finish streaming, close every session and
    join every thread and domain, and close every journal. A
    [Unix_socket] file is removed. With [~drain:false] the in-flight
    queries' budgets are cancelled first, so they truncate at their
    next poll instead of running out. Idempotent; concurrent calls wait
    for the first. *)
