(** The workloads' shapes and their seeded inputs.

    [prepare] runs once per workload and seed, in its own process, and
    leaves everything a timed run reads in one directory — graphs as
    [.sgr] snapshots, edit scripts as [SGRDIFF1] files, refresh-er's
    prior stream and sidecar, and the reference answers the runs are
    checked against — so a timed run's memory holds no generator or
    reference state. *)

val s : int
(** Every workload enumerates at s = 2. *)

val pd_k : int
(** pd-er: results per PolyDelayEnum run. *)

val pd_graphs : int
(** pd-er: graphs per seed; run [i] uses graph [i mod pd_graphs]. *)

val serve_threshold : int
(** serve-churn: the daemon's [--compact-threshold]. *)

val serve_rate : float
(** serve-churn: the writer's open-loop mutation rate, per second. *)

val workloads : string list

val prepare : string -> seed:int -> string -> unit
(** [prepare workload ~seed dir] writes the workload's inputs into the
    existing directory [dir].
    @raise Invalid_argument on an unknown workload. *)

val reference_answer : Sgraph.Graph.t -> Sgraph.Node_set.t list
(** The complete answer at s = 2, canonically sorted, from the
    work-stealing engine on two domains — a second engine beside the
    sequential CSCliques2PF the runs time. *)

val graph : string -> int -> string
(** [graph dir i]: snapshot [i] inside an input directory (pd-er has
    {!pd_graphs}, the others one). *)

val reference : string -> int -> string
(** [reference dir i]: reference answer [i], a sorted SCLQS1 stream
    (enum-dblp has one, serve-churn one per state of the edit cycle). *)

val edits : string -> string
(** The SGRDIFF1 edit script (refresh-er, serve-churn). *)

val prior : string -> string
(** refresh-er's prior SCLQS1 stream; its sidecar is at
    [Result_io.Index.path_for]. *)
