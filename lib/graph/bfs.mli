(** Breadth-first traversals and shortest-path distances.

    Everything the s-clique algorithms need from BFS: full single-source
    distances, radius-bounded balls [N^r(v)] (the paper's distance-s
    neighborhoods, computed in the whole graph), and the same restricted to
    an induced subgraph (connectivity of a node set). ExtendMax's line-10
    call does {e not} restrict distances to [G\[C ∪ {v}\]]: s-cliques are
    defined by ambient distances, so it reads whole-graph balls (see
    [Extend_max]). *)

val distances : Graph.t -> int -> int array
(** [distances g src] maps each node to its hop distance from [src]
    ([-1] when unreachable). O(n + m).
    @raise Invalid_argument when [src] is outside [0 .. n-1]. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise distance, [-1] when disconnected. Early-exits on reaching the
    target.
    @raise Invalid_argument when either id is outside [0 .. n-1] — even
    when the two ids are equal. *)

val ball : Graph.t -> int -> radius:int -> Node_set.t
(** [ball g v ~radius] is [N^radius(v)]: all nodes at distance in
    [\[1, radius\]] from [v] — {b excluding} [v] itself, following the
    paper's definition. O(nodes visited + edges touched). *)

val ball_multi_rows :
  iter_row:((int -> unit) -> int -> unit) ->
  n:int ->
  srcs:int list ->
  radius:int ->
  Node_set.t
(** {!ball_multi} generalized over the adjacency representation:
    [iter_row f v] must apply [f] to every neighbor of [v]. The churn
    path uses it to take balls in a batch's intermediate graphs, which
    exist only as uncompacted [Overlay]s ([Overlay.iter_row]). [n]
    bounds the valid node ids.
    @raise Invalid_argument on a negative radius or an out-of-range
    source. *)

val ball_multi : Graph.t -> srcs:int list -> radius:int -> Node_set.t
(** [ball_multi g ~srcs ~radius] is the union of the {e closed} balls of
    the sources: all nodes within distance [\[0, radius\]] of at least one
    source — unlike {!ball}, the sources themselves are {b included}
    (churn invalidation wants the touched endpoints in the stale set).
    Duplicate sources are fine. O(nodes visited + edges touched).
    @raise Invalid_argument on a negative radius or an out-of-range
    source. *)

val ball_within : Graph.t -> universe:Node_set.t -> int -> radius:int -> Node_set.t
(** Like {!ball} but traversing only nodes of [universe] (distances in the
    induced subgraph [g\[universe\]]). [v] must belong to [universe]. *)

val reachable_within : Graph.t -> universe:Node_set.t -> int -> Node_set.t
(** Nodes of [universe] reachable from [v] inside [g\[universe\]],
    including [v]. [v] must belong to [universe]. *)

val is_connected_subset : Graph.t -> Node_set.t -> bool
(** Does [u] induce a connected subgraph? The empty set and singletons are
    connected. *)
