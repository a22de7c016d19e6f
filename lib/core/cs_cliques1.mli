(** CsCliques1 (paper Fig. 6): Bron–Kerbosch adaptation in which the
    growing set [R] is a {e connected} s-clique at every step.

    The recursion state is [(R, P, X)] with the invariant
    [P ∪ X = N^{∀,s}(R)] (nodes within distance s of all of [R]); only
    nodes of [P] adjacent to [R] are branched on, which preserves
    connectivity of [R]. [R] is printed when neither [P] nor [X] contains
    a neighbor of [R] — i.e. [R] is maximal. The paper shows (§5.3) that
    neither pivoting nor the feasibility check can be combined with this
    variant, which is why it loses to the optimized CsCliques2 despite
    doing no unconnected work. *)

val iter :
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  unit
(** Call the function on every maximal connected s-clique exactly once.
    [min_size] enables the §6 pruning ([|R| + |P| < k] branches are cut)
    and suppresses smaller results. [should_continue] is polled at every
    recursion entry; [false] abandons the remaining search.

    With [obs], the delay recorder ticks per emission and the
    recursion-tree counters [cs1.calls], [cs1.max_depth] and [cs1.emits]
    are maintained; without it the search is uninstrumented. *)

val root_runner :
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  int ->
  unit
(** [root_runner nh yield] configures one search (same options as
    {!iter}) and returns the function running a single branch of the full
    recursion: called on [root], it emits exactly the maximal connected
    s-cliques whose {e minimum} node is [root]. Running every root in
    turn reproduces {!iter}'s output — this is the unit of work behind
    budgeted, checkpointable and root-subset runs. The delay clock starts
    when the runner is built, not per root; the caller is responsible for
    {!Neighborhood.sync_obs} when its run ends. *)
