(** CsCliques1 (paper Fig. 6): Bron–Kerbosch adaptation in which the
    growing set [R] is a {e connected} s-clique at every step.

    The recursion state is [(R, P, X)] with the invariant
    [P ∪ X = N^{∀,s}(R)] (nodes within distance s of all of [R]); only
    nodes of [P] adjacent to [R] are branched on, which preserves
    connectivity of [R]. [R] is printed when neither [P] nor [X] contains
    a neighbor of [R] — i.e. [R] is maximal. The paper shows (§5.3) that
    neither pivoting nor the feasibility check can be combined with this
    variant, which is why it loses to the optimized CsCliques2 despite
    doing no unconnected work.

    The engine has no loop of its own: it exports one root's branch,
    and [Enumerate.run] runs the roots (in ascending order, or a subset,
    under a budget or from a checkpoint). *)

val root_runner :
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  int ->
  unit
(** [root_runner nh yield] configures one search and returns the
    function running a single root's branch: called on [root], it emits
    exactly the maximal connected s-cliques whose {e minimum} node is
    [root], so running every root in turn emits each result once.
    [min_size] enables the §6 pruning ([|R| + |P| < k] branches are cut)
    and suppresses smaller results. [should_continue] is polled at every
    recursion entry; [false] abandons the rest of the branch.

    With [obs], the delay recorder ticks per emission, from when the
    runner is built (not per root), and the recursion-tree counters
    [cs1.calls], [cs1.max_depth] and [cs1.emits] are maintained; without
    it the search is uninstrumented. The caller is responsible for
    {!Neighborhood.sync_obs} when its run ends. *)
