(** In-memory spans around the benchmark's own calls into the library.

    A span has a name, a start and an end on the monotonic clock, the
    span that was open around it (its parent), and the id of the unit of
    work it belongs to — one id per result, query, mutation or edit, so
    the spans of one unit can be grouped. Spans are kept in memory and
    written out once, when the run ends. A tracer belongs to one thread:
    its open-span stack is not shared. A disabled tracer records
    nothing and runs the wrapped function directly. *)

type t

type span = {
  id : int;
  parent : int;  (** [0] for a top-level span *)
  name : string;
  item : int;  (** result, query, mutation or edit id; [-1] for none *)
  start : float;
  stop : float;
}

val create : bool -> t
(** [create on]: an enabled ([true]) or disabled tracer. *)

val on : t -> bool

val span : t -> ?item:int -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. *)

val spans : t list -> span list
(** Every closed span of the given tracers, in start order. *)

val self_ms : span list -> (int, float) Hashtbl.t
(** Self time of every span in milliseconds, by span id: its duration
    minus the part of it its children cover. Children run on their
    parent's thread, nested and one after another, so that part is the
    sum of their durations. *)

val per_op_ms :
  span list -> self:(int, float) Hashtbl.t option -> op:string -> string ->
  float array
(** [per_op_ms spans ~self ~op name] is, for every span named [op], the
    summed time (self time when [self] is given, duration otherwise) of
    the spans named [name] at or below it, in milliseconds. *)

val write : string -> span list -> unit
(** One JSON object per span and line. *)
