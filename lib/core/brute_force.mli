(** Exhaustive-oracle enumeration over bitmask subsets.

    The reference implementation every algorithm is validated against in
    the test suite: enumerate all 2^n node subsets, keep those that are
    connected s-cliques, and report the ones no single node extends
    (single-node extension testing is exact for maximality because
    connected s-cliques are a connected-hereditary family). Exponential in
    [n], so inputs are capped at 22 nodes. *)

val max_nodes : int
(** Largest accepted graph size (22). *)

val check_size : Sgraph.Graph.t -> unit
(** @raise Invalid_argument when the graph exceeds {!max_nodes}. *)

val maximal_connected_s_cliques : Sgraph.Graph.t -> s:int -> Sgraph.Node_set.t list
(** All maximal connected s-cliques, in increasing {!Sgraph.Node_set.compare}
    order. @raise Invalid_argument when the graph exceeds {!max_nodes}. *)

val connected_s_cliques : Sgraph.Graph.t -> s:int -> Sgraph.Node_set.t list
(** All (not only maximal) nonempty connected s-cliques, in increasing
    order. @raise Invalid_argument when the graph exceeds {!max_nodes}. *)

val maximal_s_cliques : Sgraph.Graph.t -> s:int -> Sgraph.Node_set.t list
(** All maximal {e not-necessarily-connected} s-cliques (oracle for the
    Remark 1 reduction). @raise Invalid_argument on oversized graphs. *)

val iter_masks :
  ?should_continue:(unit -> bool) ->
  ?from_mask:int ->
  Sgraph.Graph.t ->
  s:int ->
  (Sgraph.Node_set.t -> unit) ->
  int
(** Streaming, interruptible form of {!maximal_connected_s_cliques}: scan
    subset masks from [from_mask] (default [2^n - 1]) {e descending},
    yielding each maximal connected s-clique as its mask is reached —
    in scan order, {b not} sorted. [should_continue] is polled once per
    mask. Returns the first untested mask: [0] after a complete scan,
    otherwise the value to pass back as [from_mask] to resume exactly
    where the scan stopped (each result belongs to one mask, so the split
    is emission-exact). @raise Invalid_argument on oversized graphs or an
    out-of-range [from_mask]. *)
