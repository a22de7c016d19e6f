(** Work-stealing parallel enumeration across OCaml 5 domains — the
    paper's future-work direction ("adapting the algorithms to a
    distributed environment", §8).

    The root level of CsCliques1 and CsCliques2 is embarrassingly
    parallel: branch [v] explores exactly the maximal connected
    s-cliques whose smallest node is [v], so distinct root branches
    never produce the same result. A static deal of roots balances
    badly, though — on a scale-free graph the hub-rooted branches dwarf
    the rest, and whichever worker drew them runs long after the others
    go idle. This module therefore schedules dynamically:

    - every worker owns a mutex-sharded deque of subproblems, seeded with
      the root branches round-robin;
    - owners pop the {e back} (newest first, cache-hot); an idle worker
      steals from the {e front} of the longest backlog, which holds the
      smallest remaining root id — the heaviest branch;
    - a popped subproblem that is still shallow ([depth < split_depth])
      and wide ([|P| >= split_width]) is not recursed in place: one
      {!Cs_cliques2.expand_task} visit step runs and the child subtrees
      are requeued, so an oversized branch becomes stealable pieces
      instead of one worker's fate;
    - a global atomic pending count (children registered before their
      parent retires) detects termination; starved workers sleep with
      exponential backoff rather than spin.

    Each worker keeps a private [N^s] cache, observer and result sink;
    the only shared mutable state is the scheduler's. Task placement
    never affects the result {e set} — every subproblem's state is fully
    computed before it is queued — so the canonicalized output is
    schedule-independent.

    Callers normally reach this engine through [Enumerate.run ~workers],
    which adds resume and root-subset selection on top of {!run}. *)

val max_domains : int
(** The most domains a process can hold at once: OCaml 5.1's 64-bit
    runtime cap, [Max_domains] in [caml/domain.h]. The CLI refuses a
    [--workers] past it, and the daemon's [Server.create] a
    configuration whose domains could pass it. *)

val run :
  ?split_depth:int ->
  ?split_width:int ->
  ?split_min_subtree:int ->
  ?rule:Cs_cliques2.rule ->
  ?min_size:int ->
  ?cache_capacity:int ->
  ?obs:Scliques_obs.Obs.t ->
  ?fault:Scoll.Fault.t ->
  ?roots:int list ->
  workers:int ->
  budget:Budget.t ->
  Sgraph.Graph.t ->
  s:int ->
  (int -> Sgraph.Node_set.t list -> unit) ->
  Budget.outcome * int list
(** [run ~workers ~budget g ~s sink] runs the root branches [roots]
    (default: every node; duplicates are fine; ids must lie in
    [0 .. n-1], which [Enumerate.run] checks) under the search [rule]
    (default CsCliques2P:
    [Cs2 { pivot = Some Min_uncovered; feasibility = false }]) on
    [workers] domains, the calling domain being worker 0. It returns the
    budget's verdict and the sorted ids of the roots this call
    {e committed}.

    A root commits when its whole branch has executed and the budget is
    still live at that moment: [sink root results] then receives all of
    the root's results, and only once the sink returns is the root
    recorded retired and each result counted with
    {!Budget.note_result}. A branch's results are held only until that
    moment: the engine keeps no result after handing it to the sink, or
    after its root failed to commit. The trip flag is sticky, so a deadline or
    cancel that pruned any subtree leaves its root uncommitted, and a
    resume that passes the other roots reruns exactly the uncommitted
    ones. A deadline or cancel is honored within one poll cadence per
    worker ({!Budget.create}'s [poll_every] recursion entries) {e and} at
    every task pickup, where the budget is polled in full; once tripped,
    remaining queued work drains as pure bookkeeping — no root-ball BFS,
    no visits. [Max_results] is root-atomic: the capping root's results
    are all delivered. On a resume, cap the budget at what is left of
    the run's result cap.

    The sink runs {b in a worker domain}, serialized under the commit
    lock. If it raises, the root stays uncommitted and the exception
    aborts the run (re-raised after every domain joins, like a task
    crash); roots whose sink call returned remain valid for
    checkpointing.

    Subtrees at recursion depth below [split_depth] (default [3]) with
    at least [split_width] (default [8]) candidates are split for
    stealing rather than run in place; [split_depth <= 0] disables
    splitting. When a split fires, only the children with at least
    [split_min_subtree] (default [8]) candidates are queued for stealing
    — smaller ones are run inline by the splitting worker, since
    queueing a near-leaf subtree costs more in deque traffic than it
    buys in parallelism; [split_min_subtree <= 0] queues every child.

    [fault] arms the [par.task] injection site (the crash drill: the Nth
    executed work item raises). A crashed task's root can never commit,
    and termination is unaffected because every worker drains as soon as
    the failure is recorded. It also arms [par.spawn], checked before
    each helper domain is spawned: when a spawn fails, the helpers
    already running are stopped and joined before the exception is
    re-raised, so [sink] is never called after [run] returns or raises.

    With [obs], every worker runs its own observer (domains never share
    one): per-worker delay recorders and search counters are merged into
    [obs] after the join, and the scheduler counters [par.workers],
    [par.results] (results delivered to the sink), [par.tasks],
    [par.steals], [par.splits], [par.worker<i>.results] (results worker
    [i]'s tasks produced), [par.worker<i>.tasks] (work items it
    executed, fruitless subtrees included), [par.max_worker_results] and
    [par.min_worker_results] are published.

    @raise Invalid_argument when [workers < 1]. *)

val enumerate :
  workers:int ->
  ?split_depth:int ->
  ?split_width:int ->
  ?split_min_subtree:int ->
  ?rule:Cs_cliques2.rule ->
  ?min_size:int ->
  ?cache_capacity:int ->
  ?obs:Scliques_obs.Obs.t ->
  Sgraph.Graph.t ->
  s:int ->
  Sgraph.Node_set.t list
(** Every maximal connected s-clique, each exactly once, from an
    unbudgeted {!run} over all roots, {b canonicalized}: sorted in
    increasing {!Sgraph.Node_set.compare} order, so the returned list is
    identical for every [workers], [split_depth] and [split_width] value
    (subproblems partition the output; only arrival order varies, and
    sorting removes it).
    @raise Invalid_argument when [workers < 1] or [s < 1]. *)
