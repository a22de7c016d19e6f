(** Bounded cache with least-recently-inserted (LRI) eviction.

    The paper (§7) memoizes the expensive [N^s(v)] neighborhood sets in a
    hash table and, "when memory begins to run low, removes some entries
    from the hash table (using an LRI ordering) to make room for new
    neighbor results". LRI evicts in insertion order — a FIFO policy, as
    opposed to LRU's access order — which this module reproduces, together
    with hit/miss/eviction counters for the cache ablation benchmark.

    Keys are [int] node ids: pinning the key type keeps the underlying
    hash table off the polymorphic hash/compare runtime primitives. *)

type 'v t

val create : ?weight:('v -> int) -> capacity:int -> unit -> 'v t
(** [create ~capacity ()] caches at most [capacity] bindings; inserting
    into a full cache evicts the oldest-inserted binding. [capacity = 0]
    disables caching entirely (every lookup misses and nothing is stored).
    [weight] (default [fun _ -> 0]) assigns each value a cost — e.g. an
    approximate byte size — whose running sum over the cached bindings is
    reported by {!total_weight}; it must be a pure function of the value.
    Requires [capacity >= 0]. *)

val capacity : 'v t -> int

val length : 'v t -> int

val total_weight : 'v t -> int
(** Sum of [weight v] over the currently cached values — the memory
    footprint probe used by enumeration budgets ([Budget.max_cache_bytes]).
    Constant time: maintained incrementally on add/replace/evict. *)

val find_opt : 'v t -> int -> 'v option
(** Updates the hit/miss counters but never the eviction order. *)

val find_or : 'v t -> int -> default:'v -> 'v
(** [find_or t k ~default] is {!find_opt} without the option: the cached
    value, or [default] on a miss (a caller tells the two apart with a
    [default] that is never cached, compared by [==]). Same counters;
    a hit allocates nothing. *)

val mem : 'v t -> int -> bool
(** Membership without touching the statistics. *)

val add : 'v t -> int -> 'v -> unit
(** Insert a binding, evicting the oldest one when full. Re-inserting an
    existing key replaces its value without changing its eviction rank. *)

val find_or_add : 'v t -> int -> compute:(int -> 'v) -> 'v
(** Return the cached value, or compute, store and return it. *)

val remove : 'v t -> int -> unit
(** Drop the binding for a key, subtracting its weight from
    {!total_weight}; a no-op when the key is absent. This is caller-driven
    invalidation (the graph under a cached [N^s] ball changed), not an
    eviction, so it does not count in {!stats}. A key removed and later
    re-added gets a fresh eviction rank at the back of the LRI order. *)

val fold : (int -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** Fold over the live bindings, in unspecified order. *)

val clear : 'v t -> unit
(** Drop all bindings; statistics are kept. *)

type stats = { hits : int; misses : int; evictions : int }

val stats : 'v t -> stats
