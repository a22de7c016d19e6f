(** CsCliques2 (paper Fig. 7): Bron–Kerbosch adaptation in which the
    growing set [R] is an s-clique that may be temporarily disconnected;
    connectivity is only required at print time.

    Allowing a disconnected [R] costs exploration of branches that can
    never print, but unlocks the two optimizations of the paper's §5.3:

    - {b pivoting} ([~pivot:true], "P" in the paper's plots): choose
      [u ∈ (P ∪ X) ∩ N^{∃,1}(R)] minimizing [|P − N^s(u)|] and branch only
      on [P − N^s(u)]. The pivot must be adjacent to [R] (Prop. 5.5's
      third case), so no pivot is applied while [R = ∅]. If no candidate
      pivot exists, no extension of [R] can be connected-maximal through
      new adjacent nodes and the branch only needs its print check.
    - {b feasibility} ([~feasibility:true], "F"): before branching on [v],
      require [R ∪ {v}] to lie inside a single connected component of
      [G[R ∪ {v} ∪ (P ∩ N^s(v))]]; infeasible [v] are dropped from [P]
      outright (they can never complete to a connected s-clique with [R],
      so they are not needed in [X] either). Complete pruning is
      NP-complete (Thm. 5.6); this check is the paper's sound
      approximation. *)

type pivot_rule =
  | Min_uncovered
      (** the paper's rule: minimize [|P − N^s(u)|] over the candidates *)
  | First_candidate
      (** take the smallest-id candidate without scoring — a cheaper but
          weaker choice, exposed for the pivot ablation benchmark *)

type root_order =
  | Ascending  (** Fig. 7 verbatim: the root loop scans node ids upward *)
  | Power_degeneracy
      (** footnote 1's Eppstein–Löffler–Strash adaptation: the root
          branches in a degeneracy ordering of the power graph [G^s], so
          each root call's candidate set is bounded by the s-degeneracy.
          Costs building [G^s] up front — the trade-off the
          [abl_degeneracy] benchmark measures. *)

val iter :
  ?pivot:bool ->
  ?pivot_rule:pivot_rule ->
  ?feasibility:bool ->
  ?root_order:root_order ->
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  unit
(** Call the function on every maximal connected s-clique exactly once.
    Defaults: [pivot = false], [pivot_rule = Min_uncovered],
    [feasibility = false]. [min_size] enables the §6 pruning and filters
    the output; [should_continue] is polled at every recursion entry.

    With [obs], the delay recorder ticks per emission and the counters
    [cs2.calls], [cs2.max_depth], [cs2.emits], [cs2.pivot_prunes]
    (candidates removed from branching by the §5.3 pivot) and
    [cs2.feasibility_prunes] (nodes dropped by the §5.3 feasibility
    check) are maintained; without it the search is uninstrumented. *)

(** {2 Explicit task interface}

    The work-stealing {!Parallel} scheduler needs the recursion as
    first-class subproblems it can move between workers. A {!task} is one
    node of the recursion tree — the state [(depth, R, P, X, frontier)] —
    and a {!runner} bundles a search configuration with its output sink.
    {!run_task} explores a subtree depth-first exactly as {!iter} would;
    {!expand_task} performs ONE visit step (emitting [R] if it is a
    maximal connected s-clique) and returns the child subproblems in
    branch order. Both paths execute the same shared visit code, and
    every child state is fully computed before any child runs, so
    running the children in any order — or on any worker — explores
    exactly the subtree [run_task] would: the emitted multiset is
    schedule-independent. [Enumerate.run]'s rooted loop runs one
    {!root_task} per root on a single runner; {!Parallel} moves tasks
    between workers. *)

type task

val task_depth : task -> int
(** Distance from the task's originating root call (the split-depth
    knob's unit). *)

val task_width : task -> int
(** [|P|] — the branching factor bound the scheduler's split-width
    threshold compares against. *)

type runner

val make_runner :
  ?pivot:bool ->
  ?pivot_rule:pivot_rule ->
  ?feasibility:bool ->
  ?min_size:int ->
  ?should_continue:(unit -> bool) ->
  ?obs:Scliques_obs.Obs.t ->
  Neighborhood.t ->
  (Sgraph.Node_set.t -> unit) ->
  runner
(** Same configuration surface as {!iter}. Emissions go to the given
    sink; counters (when [obs] is set) use the same [cs2.*] vocabulary,
    and the delay clock starts when the runner is built.
    The runner is only as thread-safe as its neighborhood oracle and
    sink: give each worker its own. The caller is responsible for
    {!Neighborhood.sync_obs} when a run ends. *)

val root_task : Neighborhood.t -> int -> task
(** [root_task nh v] is the state the ascending root loop reaches at
    [v]: [R = {v}] with [P] and [X] from {!Neighborhood.root_split}.
    The tasks of all roots partition the output. *)

val run_task : runner -> task -> unit
(** Explore the whole subtree depth-first. *)

val expand_task : runner -> task -> task list
(** One visit step: emit [R] if maximal, return the children. An empty
    list means the subtree is exhausted. *)
