(** The rooted Bron–Kerbosch engines of the paper, CsCliques1 (Fig. 6)
    and CsCliques2 (Fig. 7): one recursion over [(R, P, X)] with the
    invariant [P ∪ X = N^{∀,s}(R)] (nodes within distance s of all of
    [R]). The two differ only in the branch set and the print test, and
    a {!rule} picks them.

    {b CsCliques1} ({!Cs1}) keeps [R] a {e connected} s-clique at every
    step: it branches only on [P ∩ N^{∃,1}(R)] and prints [R] when no
    node of [P ∪ X] touches it, with no connectivity check. The paper
    shows (§5.3) that neither pivoting nor the feasibility check can be
    combined with it, so its rule carries neither.

    {b CsCliques2} ({!Cs2}) lets [R] be temporarily disconnected and
    requires connectivity only at print time. Allowing a disconnected
    [R] costs exploration of branches that can never print, but unlocks
    the two optimizations of the paper's §5.3:

    - {b pivoting} ([pivot = Some _], "P" in the paper's plots): choose
      [u ∈ (P ∪ X) ∩ N^{∃,1}(R)] minimizing [|P − N^s(u)|] and branch only
      on [P − N^s(u)]. The pivot must be adjacent to [R] (Prop. 5.5's
      third case), so no pivot is applied while [R = ∅]. If no candidate
      pivot exists, no extension of [R] can be connected-maximal through
      new adjacent nodes and the branch only needs its print check.
    - {b feasibility} ([feasibility = true], "F"): before branching on
      [v], require [R ∪ {v}] to lie inside a single connected component
      of [G[R ∪ {v} ∪ (P ∩ N^s(v))]]; infeasible [v] are dropped from [P]
      outright (they can never complete to a connected s-clique with [R],
      so they are not needed in [X] either). Complete pruning is
      NP-complete (Thm. 5.6); this check is the paper's sound
      approximation: one BFS from [v] over [R ∪ (P ∩ N^s(v))] that stops
      as soon as it has reached all of [R].

    {b Dense universes.} Every branch of a root stays inside the root's
    closed ball [U = N^s\[root\]] (the Eppstein–Löffler–Strash per-vertex
    subproblem), which is small on social graphs. A task numbers [U] by
    rank, so ascending local ids are ascending nodes, and carries [R],
    [P] and [X] as bitsets of [⌈|U|/32⌉] words over them. A runner works
    in one universe at a time and keeps a row store beside it: on first
    use within the universe it fills a node's ball row [N^s(u) ∩ U] (from
    {!Neighborhood.ball}) and its adjacency row [N(u) ∩ U] (from the CSR
    row) as bitsets, so every set operation of a visit is a loop over a
    few words — the filters [P ∩ N^s(v)] and [X ∩ N^s(v)], [N^{∃,1}(R)]
    as the union of [R]'s adjacency rows (and CsCliques1's branch set
    [P ∩ N^{∃,1}(R)] from it), the pivot cost
    [|P| − popcount(P ∧ N^s(u))], [P − N^s(u)], and the feasibility and
    print-time connectivity BFS. The store holds at most {!row_cap}
    words: when it is full it forgets every row and refills on demand.
    The depth-first search keeps each level's [R], [P], [X] and branch
    set in runner-owned frames, so {!run_task} allocates nothing per
    visit but the emitted sets.

    The kernels compute the same sets as the set-algebra formulation and
    the visit makes the same choices in the same order, so results,
    emission order and the [cs1.*] and [cs2.*] counters do not depend on
    them. Each ball is read from the oracle once per root rather than
    once per use: [nh.cache_misses] and [nh.bfs_expansions] are
    unchanged (as long as the oracle's cache evicts nothing),
    [nh.cache_hits] is lower. *)

type pivot_rule =
  | Min_uncovered
      (** the paper's rule: minimize [|P − N^s(u)|] over the candidates *)
  | First_candidate
      (** take the smallest-id candidate without scoring — a cheaper but
          weaker choice, exposed for the pivot ablation benchmark *)

type rule =
  | Cs1
      (** CsCliques1: branch on [P ∩ N^{∃,1}(R)], print without a
          connectivity check *)
  | Cs2 of { pivot : pivot_rule option; feasibility : bool }
      (** CsCliques2: branch on [P], or with [pivot] on [P − N^s(u)]
          around the pivot [u] it picks; with [feasibility], drop every
          branch node that fails the §5.3 check *)

(** {2 Runners and tasks}

    The engine has no loop of its own over the roots: a {!task} is one
    node of the recursion tree — the state [(depth, R, P, X)] over its
    root's universe, with [R] never empty — and a {!runner} bundles a
    search configuration with its output sink and its dense working
    state. {!run_task} explores a subtree depth-first; {!expand_task}
    performs ONE visit step (emitting [R] if it is a maximal connected
    s-clique) and returns the child subproblems in branch order. Both
    paths execute the same shared visit code, and every child state is
    fully computed before any child runs, so running the children in any
    order — or on any worker — explores exactly the subtree [run_task]
    would: the emitted multiset is schedule-independent. A task is
    immutable and shares its universe
    with the other tasks of its root; a runner handed a task of another
    root switches to that root's universe (same numbering) and forgets
    its rows, so a stolen task runs on the thief's own state.
    [Enumerate.run]'s rooted loop runs one {!root_task} per root, in
    ascending order, on a single runner; {!Parallel} moves tasks between
    workers; {!run_degeneracy} takes the roots in footnote 1's order. *)

type task

val task_depth : task -> int
(** Distance from the task's root call (the split-depth knob's unit). *)

val task_width : task -> int
(** [|P|] — the branching factor bound the scheduler's split-width
    threshold compares against. *)

val task_r : task -> Sgraph.Node_set.t
(** [R] as a node set (allocates; for tests and tools). *)

val task_p : task -> Sgraph.Node_set.t

val task_x : task -> Sgraph.Node_set.t

type runner

val make_runner :
  ?rule:rule ->
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  runner
(** A search configuration with its sink. [rule] defaults to plain
    CsCliques2, [Cs2 { pivot = None; feasibility = false }]. [min_size]
    enables the §6 pruning ([|R| + |P| < k] branches are cut) and
    filters the output; [should_continue] is polled at every recursion
    entry (and by {!run_degeneracy} before each root).

    With [obs], the delay recorder ticks per emission, from when the
    runner is built, and the rule's own counters are maintained; without
    it the search is uninstrumented. Under {!Cs1}: [cs1.calls],
    [cs1.max_depth] (the root call at depth 1) and [cs1.emits]. Under
    {!Cs2}: [cs2.calls], [cs2.max_depth] (the root call at depth 0),
    [cs2.emits], [cs2.pivot_prunes] (candidates removed from branching
    by the §5.3 pivot) and [cs2.feasibility_prunes] (nodes dropped by
    the §5.3 feasibility check). The runner is only as thread-safe as its
    neighborhood oracle and sink: give each worker its own. The caller
    is responsible for {!Neighborhood.sync_obs} when a run ends. *)

val root_task : Neighborhood.t -> int -> task
(** [root_task nh v] is the state the ascending root loop reaches at
    [v]: [R = {v}], [P] the members of [N^s(v)] above [v] and [X] those
    below it, over the universe [N^s\[v\]]. The tasks of all roots
    partition the output. *)

val run_task : runner -> task -> unit
(** Explore the whole subtree depth-first. *)

val expand_task : runner -> task -> task list
(** One visit step: emit [R] if maximal, return the children. An empty
    list means the subtree is exhausted. *)

val run_degeneracy : runner -> unit
(** Every root's branch, in footnote 1's Eppstein–Löffler–Strash order:
    a degeneracy ordering of the power graph [G^s], where each root's
    [P] is its later s-neighbors and [X] its earlier ones, so [|P|] is
    bounded by the s-degeneracy instead of the largest ball. The same
    results as the ascending {!root_task}s, in another order; building
    [G^s] first is its cost, which the [abl_degeneracy] benchmark
    measures. The runner's [should_continue] is polled before each root
    is built. *)

(** {2 The row store} *)

val row_cap : int
(** The most words a runner's row store holds: [2^18] (2 MiB), a fixed
    constant. A universe of [k] nodes needs [2k⌈k/32⌉] words for all of
    its rows ([k⌈k/32⌉] at [s = 1], where the two rows agree), so only a
    universe of more than about 2,000 nodes can fill it; a universe of
    more than [32 * row_cap] nodes gets a store of one row. *)

val row_flushes : runner -> int
(** How many times the store was full and forgot its rows. *)

val row_store_words : runner -> int
(** The store's current size in words, at most {!row_cap}. *)

(** {2 Dense kernels}

    The visit step's inner tests on a task's bitsets, run in the given
    runner (which switches to the task's universe first). Exposed for the
    differential suite and the kernel benchmarks; the visit step is their
    only other caller. Node arguments and results are node ids.
    @raise Invalid_argument on a node outside the task's universe. *)

val feasible : runner -> task -> int -> bool
(** [feasible rn t v], for [v] in the task's [P]: does a BFS from [v]
    inside [G\[R ∪ {v} ∪ (P ∩ N^s(v))\]] reach every member of [R]?
    @raise Invalid_argument when [v] is not in [P]. *)

val connected : runner -> task -> Sgraph.Node_set.t -> bool
(** [Sgraph.Bfs.is_connected_subset] of a subset of the task's universe,
    on the feasibility BFS. *)

val candidates : runner -> task -> Sgraph.Node_set.t
(** [(P ∪ X) ∩ N^{∃,1}(R)]: the pivot candidates, empty exactly when no
    node of [P ∪ X] touches [R]. *)

val pivot_of : runner -> pivot_rule -> task -> int option
(** The pivot a visit of the task branches around, [None] when
    {!candidates} is empty. *)
