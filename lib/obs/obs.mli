(** The observability handle the enumeration algorithms accept.

    One [Obs.t] bundles a {!Counters.t} registry and a per-result delay
    {!Recorder.t}. Every hot path of the library takes an optional
    [?obs:Obs.t]; when it is absent the instrumented code is a single
    [match] on [None] — no allocation, no clock read — so the default
    path pays nothing. When present, algorithms resolve counter handles
    once per run and tick the recorder on every emitted result.

    Counter names used by the library (all deterministic for a fixed
    run):
    - [nh.cache_hits] / [nh.cache_misses] / [nh.cache_evictions] — the
      N^s LRI-cache of {!Scliques_core.Neighborhood} (paper §7);
    - [nh.bfs_expansions] — nodes expanded by ball BFS computations;
    - [pd.dequeues], [pd.emits], [pd.extend_max_calls],
      [pd.index_inserts], [pd.index_duplicates], [pd.queue_high_water],
      [pd.max_extend_calls_between_emits] — PolyDelayEnum (Fig. 4);
    - [cs1.calls], [cs1.max_depth], [cs1.emits] — CsCliques1 (Fig. 6),
      the [Cs_cliques2] runner under its [Cs1] rule, which counts the
      root call at depth 1 and registers no [cs2.*] counter;
    - [cs2.calls], [cs2.max_depth], [cs2.emits], [cs2.pivot_prunes],
      [cs2.feasibility_prunes] — CsCliques2 (Fig. 7, §5.3), the same
      runner under a [Cs2] rule, root call at depth 0;
    - [brute.emits] — the oracle;
    - [par.workers], [par.results], [par.tasks], [par.steals],
      [par.splits], [par.worker<i>.results], [par.worker<i>.tasks],
      [par.max_worker_results], [par.min_worker_results] — the §8
      parallel decomposition (worker recorders and counters are merged
      into the caller's handle; steals and the per-worker loads vary
      with the steal schedule). *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** Fresh empty registry plus a delay recorder starting "now". [clock] is
    passed to the recorder (see {!Recorder.create}). *)

val counters : t -> Counters.t

val delay : t -> Recorder.t

val counter : t -> string -> Counters.counter
(** Shorthand for [Counters.counter (counters t) name]. *)

val tick : t -> unit
(** Record one emitted result on the delay recorder. *)

val reset_clock : t -> unit
(** Restart the delay origin (see {!Recorder.reset}). *)

val merge_into : into:t -> t -> unit
(** Sum the source's counters and fold its delay observations into
    [into] — the per-worker combination of the parallel decomposition.
    The source is not modified. *)

val snapshot_json : t -> Sink.json
(** [Obj] with a ["delay"] summary (omitted while no result was recorded)
    and a ["counters"] object, deterministically ordered. *)

val to_json : t -> string

val to_lines : ?measurement:string -> t -> string
(** Counters plus delay-summary fields as one line-protocol record
    (default measurement ["scliques"]). *)
