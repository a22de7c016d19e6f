(** PolyDelayEnum (paper Fig. 4): enumeration with polynomial delay.

    The algorithm maintains a queue [Q] of maximal connected s-cliques
    still to be processed and an index [I] (a B-tree over canonical node
    sets, {!Scoll.Btree}) of everything generated so far. It seeds [Q]
    with one maximal set obtained by ExtendMax from an arbitrary node,
    then, for each dequeued [C] and each neighbor [v] of [C]:
    [C' = ExtendMax({v}, G[C ∪ {v}], s)] (carve the part of [C] compatible
    with [v], {!Extend_max.carve}) and [C'' = ExtendMax(C', G, s)]
    (re-maximize); new [C''] are queued. The paper's Theorem 4.2: every
    maximal connected s-clique is printed exactly once, with O(|V|^3)
    delay.

    Line 11 is skipped when the carve [C'] already lies inside an
    earlier child [C''] of the same [C] (one of its first 62 children,
    new or duplicate): completeness needs only that {e some} registered
    maximal set contains each carve, and that child is registered. The
    answer is unchanged; the order of a FIFO run moves only where a
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
    emission (the paper's per-result delay), and the counters
    [pd.dequeues], [pd.emits], [pd.extend_max_calls] (ExtendMax
    invocations: the seeds, every line-10 carve, and the line-11
    extensions that ran), [pd.carves_covered] (line-11 extensions
    skipped because an earlier child of the same [C] contains the
    carve), [pd.index_inserts], [pd.index_duplicates],
    [pd.queue_high_water] and the deterministic delay proxy
    [pd.max_extend_calls_between_emits] (most ExtendMax invocations
    between two consecutive emissions) are maintained. Without [obs]
    the loop is unchanged — no clock reads, no counters. *)
