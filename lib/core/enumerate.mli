(** The one enumeration driver over every algorithm in the library.

    The variants carry the names used in the paper's plots:
    [PD] (PolyDelayEnum), [CS1] (CsCliques1), [CS2] with optional [P]
    (pivoting) and [F] (feasibility) suffixes, plus the brute-force
    oracle. The benchmark harness, CLI, daemon and tests all enumerate
    through {!run}, so an algorithm, a budget, a resume, an observer, a
    worker count or a root subset is always selected the same way;
    {!refresh} and the helpers {!first_n}, {!sorted_results} and
    {!largest} are thin layers over it.

    CsCliques1 and CsCliques2 decompose by root: the branch on root [v]
    yields exactly the results whose smallest member is [v]. {!run}
    drives that decomposition — one root after another in the calling
    domain, or on the work-stealing {!Parallel} engine with [workers] —
    which is what resume, refresh and the daemon build on.

    The engines keep no loops of their own: each exports one primitive
    ([Cs_cliques2]'s runner and root tasks, [Poly_delay.run]), and {!run}
    alone loops over them. Every rooted algorithm is a
    {!Cs_cliques2.rule} of the same runner: [Cs1] is CsCliques1, and the
    four CsCliques2 variants set its pivot and feasibility. A caller that
    varies an engine-internal choice {!run} does not name (the pivot
    rule, footnote 1's root order, PD's queue or index) drives the
    primitive directly, as the ablation benchmarks do. *)

type algorithm =
  | Poly_delay  (** paper "PD" *)
  | Cs1  (** "CSCliques1" *)
  | Cs2  (** "CSCliques2", no optimizations *)
  | Cs2_f  (** + feasibility check *)
  | Cs2_p  (** + pivoting *)
  | Cs2_pf  (** + pivoting and feasibility *)
  | Brute  (** exhaustive oracle, tiny graphs only *)

val all : algorithm list
(** Every variant, in the order above. *)

val name : algorithm -> string
(** Paper-style name, e.g. ["CSCliques2PF"]. *)

val of_name : string -> algorithm option
(** Case-insensitive inverse of {!name}; also accepts the short aliases
    ["pd"], ["cs1"], ["cs2"], ["cs2f"], ["cs2p"], ["cs2pf"], ["brute"]. *)

type run_report = {
  outcome : Budget.outcome;
  resumable : Checkpoint.state option;
      (** [None] exactly when the run completed; otherwise the state a
          later {!run} can pass as [resume] (the caller wraps it in a
          {!Checkpoint.t} with the graph fingerprint before saving) *)
  emitted : int;  (** results passed to the callback by {e this} call *)
}

val checkpoint_family : algorithm -> string
(** The {!Checkpoint.family} the algorithm writes and accepts: ["roots"]
    for the Bron–Kerbosch adaptations, ["pd"] for PolyDelayEnum,
    ["brute"] for the oracle. Checkpoints move freely between algorithms
    of the same family (e.g. CS2 → CS2PF, or CS2 → the parallel runner):
    they partition work identically. *)

val check : ?workers:int -> ?roots:int list -> algorithm -> Sgraph.Graph.t -> s:int -> unit
(** Refuse, before anything runs, a call to {!run} with these arguments
    that {!run} would refuse: [s < 1], [workers] below 1 or for an
    algorithm with no rooted decomposition, [roots] out of range or for
    such an algorithm, the brute oracle on a graph past
    {!Brute_force.max_nodes}. A caller that opens files for a run checks
    first, so a refused run leaves them alone.
    @raise Invalid_argument with {!run}'s message. *)

val run :
  ?min_size:int ->
  ?cache_capacity:int ->
  ?obs:Scliques_obs.Obs.t ->
  ?nh:Neighborhood.t ->
  ?budget:Budget.t ->
  ?resume:Checkpoint.state ->
  ?workers:int ->
  ?roots:int list ->
  algorithm ->
  Sgraph.Graph.t ->
  s:int ->
  (Sgraph.Node_set.t -> unit) ->
  run_report
(** Enumerate the maximal connected s-cliques (each exactly once) and
    pass them to the callback. Every result reaching the callback is
    {e committed} — it will never be produced again by a resumed run:

    - with a [budget], the rooted algorithms (CS1, CS2 and its variants)
      run one root branch at a time and release its results only when
      the whole branch finished under a live budget, so a trip
      mid-branch discards the partial root and a resume reruns it.
      Without one nothing can cut the run, so they stream each result
      as the search finds it, in the same order;
    - PolyDelayEnum and the brute oracle emit at their natural unit (one
      dequeue, one mask) and are emission-exact. The brute path streams
      in {e scan order} (descending subset masks).

    [min_size] restricts the output to sets of at least that many nodes
    and engages the paper's §6 machinery: [|R| + |P|] pruning in the
    Bron–Kerbosch variants, a largest-first queue in PolyDelayEnum.

    [budget] defaults to {!Budget.unlimited}; each emission is counted
    with {!Budget.note_result} — do not count again in the callback. A
    result cap counts this call only: for one that spans the whole
    logical run, give a resume what is left of it. [Max_results] is
    exact for [Poly_delay]/[Brute] and root-atomic for the others (the
    capping root's results are all delivered, a bounded overshoot). A resumed
    ["roots"] checkpoint's retired roots are skipped, and the
    [resumable] state of a truncated run lists them together with the
    roots this call retired.

    [workers] runs a rooted algorithm (CS1, CS2 and its variants) on the
    work-stealing {!Parallel} engine with that many domains (the calling
    domain is one; {!default_workers} is all cores); results then reach
    the callback {b in worker domains}, one committed root at a time
    (with or without a budget), in no fixed order. Without it the run
    stays a plain loop in the calling domain.

    [roots] runs only those root branches of a rooted algorithm
    (duplicates are fine): exactly the results whose smallest member is
    listed — what {!refresh} re-runs after an edit.

    With [obs], the selected algorithm records one delay per emitted
    result and its counters into the handle (see {!Scliques_obs.Obs} for
    the counter vocabulary; worker runs add the [par.*] counters), and
    the N{^s}-cache statistics are published when the run ends —
    including runs cut short by an exception from the callback. Omitting
    [obs] leaves every hot path uninstrumented.

    [nh] supplies the N{^s} oracle instead of creating one per run — the
    daemon passes a {!Neighborhood.of_shared} attachee so concurrent
    queries against the same graph share one warm ball cache. When set,
    [cache_capacity] is ignored and the oracle's own observer wiring (not
    [obs]) instruments the BFS counter. [Brute] and [workers] runs never
    consult it (each worker builds its own oracle).

    @raise Invalid_argument when [s < 1], on an oversized [Brute] graph,
    when [nh] disagrees with [g]/[s] (different [s], different node
    count), when [workers] is given to [Poly_delay] or [Brute] or is
    below 1, or when [roots] is given to [Poly_delay] or [Brute] or
    holds an id outside [0 .. n-1].
    @raise Failure when [resume] belongs to a different
    {!checkpoint_family} than [algorithm]. *)

val default_workers : unit -> int
(** The worker count the parallel engine uses when none is given: every
    core ([Domain.recommended_domain_count ()]). *)

type refresh_delta = {
  results : Sgraph.Node_set.t list;
      (** the complete answer on the after-graph, canonically sorted *)
  added : Sgraph.Node_set.t list;
      (** results in [results] but not in the prior answer, sorted *)
  removed : Sgraph.Node_set.t list;
      (** prior results no longer in the answer, sorted *)
  roots_rerun : int;  (** how many root branches were re-enumerated *)
  roots_skipped : int;
      (** affected roots whose branch fingerprint was unchanged, so they
          were neither retracted nor re-run *)
  root_fingerprints : (int * int) list;
      (** [(root, fingerprint)] on the after-graph for every digested
          root, ascending: the affected roots within
          {!Neighborhood.fingerprint_radius} of a touched node in either
          graph (re-run and skipped alike). Every root outside this list
          keeps the fingerprint it had on [before], so a persistent
          {!Result_io.Index} patches exactly the listed roots whose
          digest moved. *)
}

val refresh :
  ?min_size:int ->
  ?cache_capacity:int ->
  ?engine:[ `Seq of algorithm | `Par of int option ] ->
  ?nh:Neighborhood.t ->
  ?edits:Sgraph.Overlay.edit list ->
  ?prior_fingerprint:(int -> int option) ->
  before:Sgraph.Graph.t ->
  after:Sgraph.Graph.t ->
  touched:int list ->
  s:int ->
  prior:Sgraph.Node_set.t list ->
  unit ->
  refresh_delta
(** Incremental re-enumeration after edge churn. [before] and [after]
    are the same node set differing only by edge edits whose endpoints
    all appear in [touched] (order/duplicates irrelevant); [prior] is
    the complete answer on [before], {b sorted} in [Node_set.compare]
    order (the sorted-input contract, asserted under debug: every
    producer — {!sorted_results}, a prior delta's [results], a sorted
    stream load — already delivers it, so refresh no longer pays an
    O(|answer| log |answer|) sort per edit; same [min_size]).

    By the paper's distance-s locality, a result can appear, vanish or
    change only if one of its members has a changed N{^s} ball or
    changed incident edges — putting that member within distance s-1 of
    a touched endpoint for a single edit; since members are pairwise
    within distance s, the {e root} (minimum member) of any such result
    lies one radius-s ball further out. For a batch, passing the
    effective edit script as [edits] replays that single-edit argument
    against each intermediate graph (kept as one uncompacted overlay),
    so every edit contributes only the radius-(s-1) balls of its own
    endpoints; without [edits] the whole-batch bound pays one hop of
    slack (radius-s D around all touched nodes at once).

    Within the affected-root set, provably-unchanged branches are
    {e skipped} — neither retracted nor re-run ([roots_skipped]). A root
    with no touched node within [rho_s]
    ({!Neighborhood.fingerprint_radius}) in either graph reads only
    unchanged adjacency rows when its branch fingerprint
    ({!Neighborhood.root_fingerprint}) is taken, so its fingerprint is
    the same on both graphs: it is skipped without a digest. Each other
    affected root's fingerprint is compared across the edit.
    [prior_fingerprint] supplies stored before-graph fingerprints (e.g.
    from a {!Result_io.Index} sidecar), eliminating the before-graph
    digests; absent ones are computed.

    The surviving roots re-run on [after] through {!run}'s [roots] —
    sequentially with a rooted algorithm ([`Seq], default [`Seq Cs2_pf])
    or as CSCliques2P on [workers] domains ([`Par workers], default all
    cores) — and everything else is spliced through untouched, so
    [results] is bit-identical to a full re-enumeration.

    One oracle on [after] serves the gate ({!Neighborhood.fingerprint})
    and the [`Seq] re-run: at [s = 2] the gate digests each root's own
    ball, which the re-run's roots read as cache hits, and the re-run
    asks for no other ball. It is a fresh one
    (with [cache_capacity]) unless the caller supplies [nh]: an oracle
    currently bound to [before], with matching [s], is advanced to
    [after] via {!Neighborhood.invalidate} — dropping only the stale
    balls — and used instead, so back-to-back refreshes keep the ball
    cache warm. Under [`Par] the oracle serves only the gate: the
    workers build their own. The delta is the same either way.

    @raise Invalid_argument when [s < 1], the node counts differ, a
    touched id is out of range, [edits] disagrees with [touched], the
    oracle's [s] mismatches, or a [`Seq] algorithm has no rooted
    decomposition ([Poly_delay], [Brute]). *)

val first_n :
  ?min_size:int ->
  ?cache_capacity:int ->
  ?obs:Scliques_obs.Obs.t ->
  ?budget:Budget.t ->
  algorithm ->
  Sgraph.Graph.t ->
  s:int ->
  int ->
  Sgraph.Node_set.t list
(** The first [n] results the search finds (fewer when the graph has
    fewer, or when [budget] trips first), in {!run}'s order. The run is
    never resumed, so results are not held back per root: enumeration
    stops at the [n]-th one found — the paper's "time to return 100
    connected s-cliques" measurement shape. [budget] bounds the search
    (a deadline, a cancel) and counts the results. [n = 0] runs nothing.
    @raise Invalid_argument when [n < 0]. *)

val sorted_results :
  ?min_size:int -> ?cache_capacity:int -> algorithm -> Sgraph.Graph.t -> s:int ->
  Sgraph.Node_set.t list
(** Every result of {!run}, sorted by {!Sgraph.Node_set.compare} — the
    canonical form for cross-algorithm comparison in tests. *)

val largest :
  ?cache_capacity:int ->
  algorithm ->
  Sgraph.Graph.t ->
  s:int ->
  int ->
  Sgraph.Node_set.t list
(** [largest alg g ~s k] is the [k] biggest maximal connected s-cliques
    (fewer when the graph has fewer), largest first, ties broken by
    {!Sgraph.Node_set.compare}. A full enumeration is performed, keeping
    only a size-[k] heap of champions — the "find the top communities" use
    case of the paper's introduction. *)
