(** Counter registry: named monotonic counters and high-water marks.

    Hot paths resolve a {!counter} handle once (a hashtable lookup at
    setup time) and then bump it with a single mutable-field write, so
    instrumentation cost per event is one increment — and zero when the
    algorithms run without an observer at all.

    Names are dotted lowercase by convention ([nh.cache_hits],
    [pd.queue_high_water], [cs2.pivot_prunes]); {!to_list} returns them
    sorted so every serialization of a registry is deterministic. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create the named counter (initial value [0]). Repeated calls
    with the same name return the same handle. *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : counter -> int -> unit
(** Overwrite the value — for publishing an externally-accumulated total
    (e.g. copying the LRI cache's own hit/miss counters at the end of a
    run). *)

val set_max : counter -> int -> unit
(** High-water mark: keep the maximum of the current value and the
    argument. The counter is a mark from then on, for {!merge_into}. *)

val value : counter -> int

val name : counter -> string

val find : t -> string -> int option
(** Value of a named counter, [None] when it was never registered. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val merge_into : into:t -> t -> unit
(** Fold every counter of the source into the same-named counter of
    [into], creating it if missing: a high-water mark (a counter
    {!set_max} has written) by {!set_max}, so [into] keeps the larger
    mark and becomes a mark itself; every other counter by {!add}. So
    merging the registries of parallel workers sums their event counts
    and gives the marks of the whole run (e.g. [cs2.max_depth] is the
    deepest call any worker made, as in a sequential run). The source is
    not modified. *)
