(** The ExtendMax sub-procedure of PolyDelayEnum (paper Fig. 4), over
    the whole graph: lines 3 and 11.

    ExtendMax greedily grows a connected s-clique [C] by repeatedly adding
    a node from [N^{∀,s}(C) ∩ N^{∃,1}(C)] — a node close enough (distance
    ≤ s) to every member and adjacent to at least one — until no such node
    exists. The result is a maximal connected s-clique containing [C].
    Line 10's call, ExtendMax inside [G\[C ∪ {v}\]], is
    {!Poly_delay.Rows.carve}: as [C] is an s-clique, that carve is [v]'s
    connected piece of [G\[{v} ∪ (C ∩ N^s(v))\]].

    Node choice is deterministic: the smallest eligible id is added first,
    so results are reproducible across runs.

    It runs one greedy loop on the oracle's scratch
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
