(** Compressed sparse row (CSR) adjacency storage.

    The whole adjacency of a graph lives in two flat [int array]s: a
    row-offset array of length [n + 1] and one concatenated neighbor
    array, so node [v]'s neighbors are the slice
    [adjacency.(offsets.(v)) .. adjacency.(offsets.(v+1) - 1)]. Compared
    to the previous one-boxed-array-per-node representation this removes
    one pointer indirection and one GC-scanned header per node, packs
    every hot walk (BFS, peeling, ball expansion, triangle merges) into
    two contiguous allocations, and makes the on-disk {!Snapshot} format
    a straight dump of the two arrays.

    This module holds the representation and its scan kernels; the
    [unsafe_*]-using loops are concentrated here (the module is on the
    lint's unsafe allowlist) behind bounds-checked entry points.
    {!Graph} wraps it with the validated construction API — a [Csr.t]
    itself carries only structural invariants (see {!of_arrays}), not
    the graph-level ones (sortedness, symmetry, no loops). *)

type t

val of_rows : int array array -> t
(** Concatenate per-node rows into CSR form. O(n + total length). The
    rows are copied, not adopted. No graph-level validation. *)

val of_arrays : offsets:int array -> adjacency:int array -> t
(** Adopt the two arrays after checking the structural invariants:
    [offsets] is non-empty, starts at 0, is non-decreasing, and ends at
    [Array.length adjacency]. The caller must not mutate them afterwards.
    @raise Invalid_argument when the shape is malformed. *)

val n : t -> int
(** Number of rows (nodes). *)

val entries : t -> int
(** Total number of adjacency entries (twice the edge count for an
    undirected graph). *)

val offsets : t -> int array
(** The row-offset array itself (length [n + 1]) — O(1),
    {b do not mutate}. *)

val adjacency : t -> int array
(** The concatenated neighbor array itself — O(1), {b do not mutate}. *)

val degree : t -> int -> int
(** Row length. [v] must be in [0 .. n-1] (checked by the array bounds). *)

val row : t -> int -> int array
(** Fresh copy of row [v]; safe to mutate. O(degree). *)

val iter_row : (int -> unit) -> t -> int -> unit
(** Apply to each entry of row [v] in storage (sorted) order. The scan
    is closure-per-element but indexes the flat array unchecked, so it
    costs the same as iterating the old per-node array. *)

val fold_row : ('a -> int -> 'a) -> 'a -> t -> int -> 'a
(** Fold over row [v] in storage order. *)

val mem_row : t -> int -> int -> bool
(** [mem_row t v x] is true when sorted row [v] contains [x], by binary
    search — O(log degree). Only meaningful when rows are sorted. *)

val scatter_ball2 : t -> int -> rank:int array -> into:int array -> off:int -> unit
(** [scatter_ball2 t v ~rank ~into ~off] is {!Node_set.scatter_ranks} of
    [v]'s radius-2 ball (the nodes within distance 2 of [v], [v] itself
    excluded), read straight off [v]'s row and its neighbors' rows: it
    sets bit [rank.(x)] of the bitset stored in [into] from word [off]
    on (32 bits per word, as in {!Scoll.Bitset}) for every such [x] with
    [rank.(x) >= 0], then clears [v]'s own bit when [rank.(v) >= 0].
    No traversal state, sort or allocation: it reads [v]'s degree plus
    its neighbors' degrees in ids.
    @raise Invalid_argument when a node or a word falls outside [rank]
    or [into]. *)

val equal : t -> t -> bool
(** Same offsets and same adjacency, compared as int arrays. *)
