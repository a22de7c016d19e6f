(** Structured errors for every file-format parser in the tree.

    A malformed input line must surface as data the caller can act on —
    which file, which line, what went wrong — not as a bare [Failure]
    string or an escaped [Scanf]/[Invalid_argument] from three layers
    down. All loaders and parsers (edge lists, METIS, result streams,
    checkpoints) raise exactly {!Parse_error}; the fuzz suite asserts
    that no other exception ever escapes them, and the CLI maps it to a
    one-line diagnostic and exit code 1. *)

exception Parse_error of { file : string; line : int; msg : string }
(** [file] is the path given to the loader (["<string>"] for in-memory
    parses); [line] is 1-based ([0] when no line is meaningful, e.g. a
    truncated binary stream). *)

val fail : file:string -> line:int -> string -> 'a
(** Raise {!Parse_error}. This helper is the designated re-raise point
    for parser catch-all handlers that convert stray exceptions into the
    structured form: [scliques-lint]'s exception-swallow rule recognizes
    a handler whose body calls [Io_error.fail] as re-raising, not
    swallowing. *)

val failf : file:string -> line:int -> ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!fail}. *)

val to_string : file:string -> line:int -> string -> string
(** ["file:line: msg"] (or ["file: msg"] when [line = 0]) — the rendering
    the CLI prints. *)

val message : exn -> string option
(** [Some] of the rendered message when the exception is {!Parse_error},
    [None] otherwise. *)

val structured : file:string -> (unit -> 'a) -> 'a
(** [structured ~file f] runs a parser body under the totality
    contract: anything it throws that is not already a {!Parse_error}
    (or an environment error that must propagate untouched: [Sys_error],
    [Out_of_memory], [Stack_overflow]) becomes a {!Parse_error} naming
    [file], so callers and the fuzz suites see exactly one exception
    type. The one backstop every loader runs its parse under. *)
