(** PolyDelayEnum (paper Fig. 4): enumeration with polynomial delay.

    The algorithm maintains a queue [Q] of maximal connected s-cliques
    still to be processed and an index [I] (a B-tree over canonical node
    sets, {!Scoll.Btree}) of everything generated so far. It seeds [Q]
    with one maximal set obtained by ExtendMax from an arbitrary node,
    then, for each dequeued [C] and each neighbor [v] of [C]:
    [C' = ExtendMax({v}, G[C ∪ {v}], s)] (carve the part of [C] compatible
    with [v], {!Rows.carve}) and [C'' = ExtendMax(C', G, s)]
    (re-maximize); new [C''] are queued. The paper's Theorem 4.2: every
    maximal connected s-clique is printed exactly once, with O(|V|^3)
    delay.

    Completeness needs line 11 only to register {e some} maximal set
    that contains each carve [C'] (DESIGN.md §3), so line 11 is skipped
    when a registered set already holds [C']:
    - an earlier child of the same [C] (one of its first 62, new,
      duplicate or found in the rings). A per-node child mask tests
      [{v} ∪ (C ∩ N^s(v))] before the carve is built, and the carve
      itself when that pre-test fails;
    - a set in the rings: each node keeps the 62 most recent registered
      sets that contain it, and the ring of the carve's member with the
      fewest is searched. A set found there counts as a child of [C].
    The answer is unchanged; the order of a FIFO run moves only where a
    skipped extension would have reached a set not yet found, which
    another parent then finds later.

    The paper assumes a connected input; this implementation seeds one
    initial set per connected component, which extends the theorem to
    arbitrary graphs (s-clique distances never cross components).

    §6 large-results mode: with [~queue_mode:Largest_first] the FIFO is
    replaced by a max-size priority queue, and with [~min_size:k] only
    results of size ≥ k are reported (everything is still explored —
    smaller sets may lead to large undiscovered ones).

    {!run} is the engine's one entry point. [Enumerate.run] drives it
    with a budget and a checkpoint; the queue and index ablations call
    it directly to pick a discipline. *)

type queue_mode =
  | Fifo  (** paper Fig. 4: breadth-first over the solution graph *)
  | Largest_first  (** §6 heuristic: priority queue, larger sets first *)

type index_mode =
  | Btree  (** the paper's suggestion — O(log n) worst case per operation *)
  | Hashtable
      (** amortized O(1) expected per operation; trades the B-tree's
          worst-case delay guarantee for hashing. Exposed for the index
          ablation benchmark. *)

type run_stats = {
  results : int;  (** sets reported *)
  generated : int;  (** sets inserted into the index *)
  index_height : int;  (** final B-tree height *)
}
(** Counters about one run (for the index ablation benchmark and the
    memory discussion of §7). *)

type frontier = {
  f_index : Sgraph.Node_set.t list;  (** every set registered, in order *)
  f_queue : Sgraph.Node_set.t list;  (** the unprocessed subset of it *)
}
(** A stopped run's complete restart state. The sets already emitted are
    exactly the index minus the queue (filtered by [min_size]), so a
    resumed run re-emits nothing: re-registering [f_index] makes every
    old set a known duplicate, and processing restarts from [f_queue]. *)

(** Lines 9–10 of Fig. 4 for one dequeued set [C], as {!run} computes
    them. {!load} makes one pass over the [N^s] balls of [C]'s members
    (their CSR rows at [s = 1]) and gives each neighbor [v] of [C] a bit
    row over [C]'s ranks holding [S_v = C ∩ N^s(v)], by distance
    symmetry; a row spans several words once [|C|] passes 62. As [C] is
    an s-clique, each member's ball already holds the rest of [C], so
    the carve ExtendMax([{v}], [G\[C ∪ {v}\]], s) is [v]'s connected
    piece of [G\[{v} ∪ S_v\]], found by a search along CSR rows. *)
module Rows : sig
  type t

  val create : Neighborhood.t -> t
  (** State for sets of the oracle's graph: three arrays of [n] ints,
      plus buffers sized to the largest set and its neighbors. *)

  val load : t -> Sgraph.Node_set.t -> unit
  (** [load t c] fills the rows of the connected s-clique [c]'s
      neighbors, replacing the previous set's. The caller must pass a
      connected s-clique: on anything else {!carve} is not ExtendMax. *)

  val neighbors : t -> Sgraph.Node_set.t
  (** [N^{∃,1}(c)]: the nodes outside [c] adjacent to one of its members,
      one row each. *)

  val row : t -> int -> Sgraph.Node_set.t
  (** [row t v] is [c ∩ N^s(v)].
      @raise Invalid_argument when [v] is not one of {!neighbors}. *)

  val carve : t -> int -> Sgraph.Node_set.t
  (** [carve t v] is ExtendMax([{v}], [G\[c ∪ {v}\]], s), line 10 of
      Fig. 4: membership and growth adjacency lie within [c ∪ {v}],
      distances are those of the whole graph (§3 defines s-cliques by
      ambient distances, and a witness path may leave [c ∪ {v}]).
      @raise Invalid_argument when [v] is not one of {!neighbors}. *)
end

val run :
  ?queue_mode:queue_mode ->
  ?index_mode:index_mode ->
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?init:frontier ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  run_stats * frontier
(** Call the function on each maximal connected s-clique, exactly once,
    and report the run's {!run_stats} and its {!frontier}.
    [should_continue] is polled once per dequeue; returning [false]
    abandons the remaining work (a budget's {!Budget.checker}).

    Without [init] it seeds one set per component; with it, it resumes
    that frontier. The returned frontier has an empty [f_queue] iff the
    run exhausted the solution graph (it is only worth persisting
    otherwise). [run_stats] counts this call's work only, but an
    [init] index's sets do count into [generated]. Resuming under a
    different [queue_mode]/[index_mode] is sound — the disciplines
    change order, never the result set.

    With [obs], the run is instrumented: the delay recorder ticks on each
    emission (the paper's per-result delay), and these counters are
    maintained:
    - [pd.dequeues]: sets taken off the queue; [pd.emits]: those
      reported (of at least [min_size] nodes);
    - [pd.extend_max_calls]: ExtendMax invocations — the seeds, the
      line-10 carves built (not those the pre-test proved covered) and
      the line-11 extensions that ran;
    - [pd.carves_covered]: neighbors [v] whose carve an earlier child
      of the same [C] contains, by the pre-test or after the carve;
    - [pd.ring_hits]: carves found inside a registered set in the
      rings, so not extended;
    - [pd.index_inserts], [pd.index_duplicates]: line-11 and seed
      extensions whose result was new, or already registered;
    - [pd.queue_high_water]: the longest the queue grew;
    - [pd.max_extend_calls_between_emits]: the most ExtendMax
      invocations (carves built plus extensions run, as counted by
      [pd.extend_max_calls]) between two consecutive emissions, a
      deterministic proxy for Theorem 4.2's delay.
    Without [obs] the loop is unchanged — no clock reads, no counters. *)
