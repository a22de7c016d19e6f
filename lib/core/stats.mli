(** Size statistics over enumeration results (the paper's Figure 11
    "average and max sizes" measurement, and the per-run size summaries
    quoted throughout §7). *)

type t = {
  count : int;
  min_size : int;  (** 0 when [count = 0] *)
  max_size : int;  (** 0 when [count = 0] *)
  avg_size : float;  (** 0. when [count = 0] *)
  total_nodes : int;  (** sum of sizes *)
}

val empty : t

val add : t -> int -> t
(** [add t k] counts one more result, of [k] nodes, so a summary folds
    a run's results as they arrive instead of holding them. *)

val of_results : Sgraph.Node_set.t list -> t

val of_sizes : int list -> t

val sample :
  ?cache_capacity:int ->
  Enumerate.algorithm ->
  Sgraph.Graph.t ->
  s:int ->
  int ->
  t
(** [sample alg g ~s n] summarizes the first [n] maximal connected
    s-cliques returned by [alg] — the paper's Fig. 11 protocol of sampling
    100 s-cliques per dataset and value of s. *)

val pp : Format.formatter -> t -> unit
