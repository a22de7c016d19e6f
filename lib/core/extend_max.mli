(** The ExtendMax sub-procedure of PolyDelayEnum (paper Fig. 4).

    ExtendMax greedily grows a connected s-clique [C] by repeatedly adding
    a node from [N^{∀,s}(C) ∩ N^{∃,1}(C)] — a node close enough (distance
    ≤ s) to every member and adjacent to at least one — until no such node
    exists. The result is a maximal connected s-clique containing [C].
    Both call sites of the paper are covered:

    - line 3 / line 11 extend with respect to the {e whole} graph
      ({!in_graph});
    - line 10 extends [{v}] inside the induced subgraph [G\[C ∪ {v}\]]
      ({!carve}) — this is what lets the algorithm carve the portion of
      [C] compatible with [v]. The restriction applies to membership and
      to the adjacency driving connected growth only; distances are
      still those of the whole graph, because §3 defines s-cliques by
      ambient distances (witness paths may leave the set — and hence
      [C ∪ {v}]). Restricting distances too would drop members of [C]
      whose only witness path to [v] runs outside [C ∪ {v}] and lose
      results, violating Theorem 4.2.

    Node choice is deterministic: the smallest eligible id is added first,
    so results are reproducible across runs.

    Both run one greedy loop on the oracle's scratch
    ({!Neighborhood.scratch}): apart from the scratch buffers' amortized
    growth, building the result is a call's only allocation, no call
    does O(n) work, and the oracle's ball cache sees the same lookups, in
    the same order, as the set-algebra formulation ([N^{∀,s}(C)] first,
    then one ball per added node). *)

val in_graph : Neighborhood.t -> Sgraph.Node_set.t -> Sgraph.Node_set.t
(** [in_graph nh c] grows the connected s-clique [c] to a maximal one in
    the whole graph. An empty [c] starts from node 0 (the paper's
    "arbitrary node"); the empty graph yields the empty set. The caller
    must pass a connected s-clique. *)

val carve : Neighborhood.t -> Sgraph.Node_set.t -> int -> Sgraph.Node_set.t
(** [carve nh c v] runs ExtendMax({v}, G[c ∪ {v}], s), line 10 of
    Fig. 4: only members of [c] may join and growth follows adjacency
    within [c ∪ {v}], but distance-s closeness is decided in the whole
    graph (see the module comment).
    @raise Invalid_argument when [v] is out of range or a member of
    [c], before the scratch is touched. *)
