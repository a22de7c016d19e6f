(** What one timed run hands back to [run.py]: one JSON line on stdout. *)

type t = {
  mutable attempted : int;  (** operations tried in the timed phase *)
  mutable errors : string list;  (** one line per failed check, newest first *)
  mutable metrics : (string * float) list;  (** end-to-end, this run *)
  mutable layers : (string * float) list;
      (** per-layer metrics every workload has, from the tracer *)
  mutable detail : (string * (string * float)) list;
      (** name, unit and value of this workload's own figures, printed
          beside the record: the manifest's metrics must be the same for
          every workload, and these are not *)
  mutable counters : (string * int) list;
      (** deterministic counters, compared across runs of one seed *)
  mutable info : (string * string) list;  (** context for the record *)
}

val create : unit -> t

val fail : t -> ('a, unit, string, unit) format4 -> 'a
(** Record one failed check. *)

val metric : t -> string -> float -> unit

val layer : t -> string -> float -> unit

val detail : t -> string -> unit:string -> float -> unit

val counter : t -> string -> int -> unit

val info : t -> string -> string -> unit

val print : t -> unit
(** The JSON line, floats with 17 significant digits. *)

val peak_rss_mb : int -> float
(** [peak_rss_mb pid]: the process's [VmHWM], in MiB.
    @raise Failure when [/proc/PID/status] has no such line. *)

val now : unit -> float
(** Seconds on the monotonic clock. *)
