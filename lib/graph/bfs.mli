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
    paper's definition. O(nodes visited + edges touched), in O(ball)
    memory: a one-off call marks visited nodes in a hashed set rather
    than an n-bit one ({!ball_on} reuses a {!scratch} instead).
    @raise Invalid_argument on a negative radius, or when [radius > 0]
    and [v] is out of range. *)

(** {2 Balls on reusable scratch}

    An owner that takes many balls of one graph (the N^s oracle's cache
    misses, a staged fingerprinter) keeps one {!scratch}: an n-bit
    visited set and a discovery buffer. A call marks the nodes it
    reaches, then sorts the discovery buffer into ascending order and
    unmarks each reached node, leaving the scratch all-zero again, so no
    call pays an O(n) clear. A scratch is not reentrant: one call at a
    time, on one thread. *)

type scratch

val scratch : int -> scratch
(** [scratch n] serves graphs of at most [n] nodes. It holds [n/32]
    words plus a buffer that grows to the largest ball taken.
    @raise Invalid_argument when [n < 0]. *)

val is_clear : scratch -> bool
(** Whether the visited set and the buffer are all-zero, as every call
    leaves them. O(n/32 + buffer); for tests. *)

val with_ball : scratch -> Graph.t -> int -> radius:int -> (int array -> int -> 'a) -> 'a
(** [with_ball sc g v ~radius f] is [f a len], where [a.(0) .. a.(len-1)]
    are the members of {!ball}[ g v ~radius] in ascending order. [a] is
    the scratch's buffer: [f] may read that prefix, must not write it,
    and must not keep it or call into [sc] again. The scratch is cleared
    when [f] returns or raises.
    @raise Invalid_argument as {!ball} does, and when [g] has more
    nodes than [sc] serves. *)

val ball_on : scratch -> Graph.t -> int -> radius:int -> Node_set.t
(** [ball_on sc g v ~radius] is {!ball}[ g v ~radius], computed on [sc]:
    the only allocation is the returned set. *)

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
