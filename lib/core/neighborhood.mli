(** Cached distance-s neighborhoods — the N-operators of the paper's §3.

    Every algorithm in the paper is phrased in terms of three operators
    over a graph [G] and parameter [s]:
    - [N^s(v)]     — nodes at distance 1..s from [v] ({!ball});
    - [N^{∀,s}(C)] — nodes at distance ≤ s from {e all} of [C] ({!ball_forall});
    - [N^{∃,1}(C)] — nodes adjacent to {e at least one} node of [C]
      ({!adjacent_any}).

    Computing [N^s(v)] (a bounded BFS) is "one of the most costly
    operations in all algorithms" (§7), so the paper memoizes it in a hash
    table with LRI eviction under a memory cap. A [Neighborhood.t] bundles
    the graph, [s], and that cache; all enumeration algorithms take one.

    Who reads the memo: PolyDelayEnum's ExtendMax, on every step; the
    rooted engines ({!Cs_cliques2}), once per root for the root's
    universe, and at [s >= 3] once per member row of each universe (at
    [s <= 2] they read rows straight off the CSR rows); and
    {!Enumerate.refresh}'s gate at [s = 2], whose digests take the
    balls the re-run's roots then hit. At [s = 1] a ball is the node's
    CSR row and nothing is cached. *)

type t

(** A thread-safe ball store that many oracles — one per concurrent
    query — can share, so every query against the same graph warms the
    same [N^s] cache. The store holds the graph, [s], an epoch counter
    and the weighted LRI cache behind one mutex; {!of_shared} attaches a
    per-query [t] whose scratch bitsets stay thread-confined while its
    {!ball} lookups go through the store.

    Lookups use double-checked locking: the probe and the insert each
    take the lock, but a missing ball's BFS runs {e outside} it, on the
    querying oracle's own traversal scratch, so a slow miss never
    serializes sibling queries. Both sides are epoch-guarded: once the store's epoch moved
    past an oracle's attach point, that oracle neither reads hits (they
    may describe the newer graph) nor writes fills (computed against the
    older one) — it keeps answering for its birth graph from its own
    BFS. An insert is also skipped when a sibling already filled the
    key, so the weight ledger counts every cached ball exactly once. *)
module Shared : sig
  type store

  val create : ?cache_capacity:int -> s:int -> Sgraph.Graph.t -> store
  (** [cache_capacity] bounds the number of memoized balls across {e all}
      attached oracles (default [65536]).
      @raise Invalid_argument when [s < 1]. *)

  val graph : store -> Sgraph.Graph.t

  val s : store -> int

  val epoch : store -> int
  (** 0 at creation, +1 per {!invalidate}. *)

  val invalidate : store -> after:Sgraph.Graph.t -> touched:int list -> unit
  (** Switch the store to [after], dropping exactly the balls a radius-s
      change can reach (the same locality rule as the per-oracle
      {!Neighborhood.invalidate}) and bumping the epoch. Oracles already
      attached keep answering for their birth graph — their inserts are
      discarded from then on (see {!Neighborhood.stale}); attach fresh
      ones to serve the new graph.
      @raise Invalid_argument when the node counts differ. *)

  val advance : store -> after:Sgraph.Graph.t -> touched:int list -> store
  (** [advance store ~after ~touched] is the copy-on-write sibling of
      {!invalidate}: a {e fresh} store for [after] (epoch + 1, same [s]
      and capacity), pre-warmed with every cached ball the radius-s
      locality rule proves still valid, leaving [store] {b untouched} —
      its graph, epoch and cache are exactly as before, so oracles
      attached to it keep their warm hits for as long as they live. This
      is what an epoch-pinned server wants on mutation: in-flight
      queries finish on the old store, new admissions attach to the
      returned one. With an empty [touched] every ball is carried over.
      @raise Invalid_argument when the node counts differ. *)

  val bytes : store -> int
  (** Approximate heap bytes of the cached balls (the incrementally
      maintained weight ledger). *)

  val length : store -> int
  (** Number of cached balls. *)

  val recount_bytes : store -> int
  (** {!bytes} recomputed from scratch by walking every cached ball —
      O(cached). Equal to {!bytes} unless the ledger leaked; tests
      compare the two after fault drills. *)

  val stats : store -> Scoll.Lri_cache.stats
end

val create : ?cache_capacity:int -> ?obs:Scliques_obs.Obs.t -> s:int -> Sgraph.Graph.t -> t
(** [create ~s g] prepares a neighborhood oracle for [g] with parameter
    [s >= 1]. [cache_capacity] bounds the number of memoized balls
    (default [65536]; [0] disables caching — every query recomputes).
    With [obs], each ball BFS adds its visited-node count to the
    [nh.bfs_expansions] counter as it happens; cache counters are
    published on {!sync_obs}.
    @raise Invalid_argument when [s < 1]. *)

val of_shared : ?obs:Scliques_obs.Obs.t -> Shared.store -> t
(** [of_shared store] is a per-query oracle backed by [store]'s ball
    cache: same operator surface as a {!create}d one, but every cache hit
    and fill is shared with the store's other attachees. The oracle's
    scratch bitsets are its own — a [t] must still be confined to one
    thread at a time; only the {e store} is safe to share. The graph and
    [s] are the store's at attach time. *)

val stale : t -> bool
(** Whether the backing {!Shared.store} was {!Shared.invalidate}d since
    this oracle attached (always [false] for a {!create}d oracle). A
    stale oracle still answers consistently for its birth graph — it
    stops reading {e and} writing the shared cache (a hit filled for the
    newer graph must not leak into its answers) and recomputes balls
    itself. *)

val graph : t -> Sgraph.Graph.t
(** The graph the oracle currently answers for (the {!create} argument,
    or the latest {!invalidate} replacement). *)

val s : t -> int

val epoch : t -> int
(** Graph-version counter: 0 at creation, +1 per {!invalidate}. Consumers
    holding data derived from this oracle (checkpoints, result caches)
    can compare epochs to detect that the graph changed underneath. *)

val invalidate : t -> after:Sgraph.Graph.t -> touched:int list -> unit
(** [invalidate t ~after ~touched] switches the oracle to [after], a
    graph differing from the current one only by edge edits whose
    endpoints are all listed in [touched] (order and duplicates
    irrelevant). Instead of clearing the ball cache wholesale, it drops
    exactly the balls a radius-s change can reach — the cached keys
    within distance s of a touched endpoint in either graph — and keeps
    the rest warm; the epoch is bumped. With an empty [touched] (an
    empty edit batch) nothing is dropped.
    @raise Invalid_argument when the node counts differ, a touched id is
    out of range, or the oracle is {!of_shared}-backed (churn goes
    through {!Shared.invalidate} instead). *)

val ball : t -> int -> Sgraph.Node_set.t
(** [ball t v] is [N^s(v)], {b excluding} [v] itself. Cached; a hit on a
    {!create}d oracle allocates nothing. A miss runs the BFS on the
    oracle's own {!Sgraph.Bfs.scratch} (private and {!of_shared} oracles
    alike), so it allocates only the ball it returns. *)

val ball_forall : t -> Sgraph.Node_set.t -> Sgraph.Node_set.t
(** [ball_forall t c] is [N^{∀,s}(c)]: nodes (outside [c]) at distance at
    most [s] in the whole graph from every node of [c]. For an empty [c]
    it returns every node of the graph (an empty conjunction holds). *)

val adjacent_any : t -> Sgraph.Node_set.t -> Sgraph.Node_set.t
(** [adjacent_any t c] is [N^{∃,1}(c)]: nodes outside [c] adjacent to at
    least one member. Empty for an empty [c]. *)

val load_mask : t -> Sgraph.Node_set.t -> Scoll.Bitset.t
(** [load_mask t c] loads [c] into the oracle's scratch membership bitset
    and returns it, so members of [c] can be tested at O(1) each, as
    {!Extend_max}'s candidate filter does on a ball's words. Clearing is
    O(|previous load|), not O(n). The returned bitset is only valid
    until the next [load_mask] call on [t] — do not hold on to it across
    other oracle operations. *)

(** The working state of ExtendMax ({!Extend_max}), owned by the oracle
    so that every oracle — each daemon query's, each PD run's — has its
    own and none is ever shared. Each call leaves the state as the rules
    below require before it returns.
    - [cand]: a candidate buffer, grown by its user; its contents are
      meaningless between calls;
    - [members]: a buffer for the members of the set being grown, with
      the same rule;
    - [frontier]: a bitset over the node ids that is {b all-zero}
      between calls. A user that sets bits must zero them again before
      returning — by clearing only the words it touched, never with an
      O(n) {!Scoll.Bitset.clear}. *)
type scratch = {
  mutable cand : int array;
  mutable members : int array;
  frontier : Scoll.Bitset.t;
}

val scratch : t -> scratch

val reserve : int array -> int -> int array
(** [reserve buf k] is [buf] when it holds at least [k] ints, else a
    fresh buffer of at least [max k (2 * length buf)]. *)

val zero_row : int array -> off:int array -> adj:int array -> int -> unit
(** [zero_row words ~off ~adj v] stores zero to every word of a bitset's
    word array ({!Scoll.Bitset.unsafe_words}) that holds a neighbor of
    [v], where [off]/[adj] are the graph's CSR arrays: it undoes a
    scatter of [v]'s row, and wipes any other bit sharing those words. *)

val within_distance : t -> int -> int -> bool
(** [within_distance t u v] decides [dist(u,v) <= s] using the cache
    ([u = v] counts as within distance). *)

val cache_stats : t -> Scoll.Lri_cache.stats
(** Hit/miss/eviction counters of the ball cache (for the ablation
    benchmark). *)

val cache_bytes : t -> int
(** Approximate heap bytes held by the memoized balls — the probe behind
    [Budget.max_cache_bytes]. Constant time. *)

val fingerprint_radius : s:int -> int
(** The branch-fingerprint ball radius [rho_s = s + (s-1)/2]. The results
    rooted at [r] are a function of the closed ball [B(r, rho_s)] and the
    edges incident to its members: every witnessing path of length [<= s]
    between members of the closed [N^s(r)] has all of its edges incident
    to a node within [(s-1)/2] hops of one of the path's endpoints, hence
    within [rho_s] of [r].
    @raise Invalid_argument when [s < 1]. *)

val root_fingerprint : s:int -> Sgraph.Graph.t -> int -> int
(** [root_fingerprint ~s g r] digests the branch of root [r]: a CRC-32
    over the sorted members of the closed [B(r, rho_s)] ball and each
    member's full adjacency row. Equal fingerprints across an edge edit
    imply the branch's result set is unchanged (up to a CRC-32 collision,
    [~2^-32] — the same trust the result stream places in CRC-32), which
    is what lets {!Enumerate.refresh} skip re-running the root. O(ball +
    incident edges).

    Staged: [root_fingerprint ~s g] is a fingerprinter for [g]. Its
    first call takes the ball with the one-off {!Sgraph.Bfs.ball}, so a
    fully applied call allocates nothing of size n; from the second call
    on, every root is digested on one {!Sgraph.Bfs.scratch} the
    fingerprinter allocates then. Apply it once per graph
    ({!Result_io.Index.build} callers pass it as [~fingerprint]). The
    returned function is {b not reentrant}: one call at a time, on one
    thread.
    @raise Invalid_argument when [s < 1] (at staging) or [r] is out of
    range. *)

val fingerprint : t -> int -> int
(** [fingerprint t r] is [root_fingerprint ~s:(s t) (graph t) r],
    computed through the oracle: {!Enumerate.refresh}'s gate. At
    [s <= 2], where [rho_s = s], it digests [ball t r], so a miss fills
    the cache the re-run reads; above, it runs the radius-[rho_s]
    traversal on the oracle's scratch.
    @raise Invalid_argument when [r] is out of range. *)

val sync_obs : t -> unit
(** Publish the ball cache's cumulative hit/miss/eviction counts into the
    observer's [nh.cache_hits] / [nh.cache_misses] / [nh.cache_evictions]
    counters (overwriting — the LRI cache is the source of truth). No-op
    without an observer. Algorithms call this once when a run ends so the
    per-query path stays counter-free. *)
