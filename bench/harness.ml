(* Timing, budgets, and table rendering for the experiment suite.

   Every figure of the paper is reproduced as a table: one row per
   algorithm, one column per swept parameter value. Cells hold wall-clock
   seconds, or ">B" when the per-cell time budget B was exhausted before
   the measurement finished (the paper reports the same as "timed out").

   Environment knobs:
     FAST=1      smaller workloads (quick smoke of the whole suite)
     BUDGET=<s>  per-cell wall-clock budget in seconds (default 30; 6 fast)
     SEED=<n>    base RNG seed for all generated workloads (default 42)

   The --smoke command-line flag (used by CI) is equivalent to FAST=1;
   it is detected here, at module initialization, because the workload
   size lists derived from [fast] are themselves computed when the
   Workloads module initializes — a flag parsed later in main would come
   too late to shrink them. *)

let smoke = Array.exists (String.equal "--smoke") Sys.argv

let fast =
  smoke || match Sys.getenv_opt "FAST" with Some ("1" | "true") -> true | _ -> false

let budget =
  match Option.bind (Sys.getenv_opt "BUDGET") float_of_string_opt with
  | Some b when b > 0. -> b
  | _ -> if fast then 6. else 30.

let seed =
  match Option.bind (Sys.getenv_opt "SEED") int_of_string_opt with
  | Some s -> s
  | None -> 42

(* monotonic: a budget must not be stretched or cut by NTP slew *)
let now = Scliques_obs.Clock.now

(* Outcome of one measured cell. *)
type outcome =
  | Seconds of float
  | Timeout
  | Note of string  (** free-form cell, e.g. a count or size *)

let cell_to_string = function
  | Seconds t -> if t < 0.0005 then "<0.001" else Printf.sprintf "%.3f" t
  | Timeout -> Printf.sprintf ">%g" budget
  | Note s -> s

(* A run that checks the budget itself, outside any engine, raises this
   once it has tripped. *)
exception Out_of_budget

(* Run [f] under a fresh per-cell deadline budget, polled in full at
   every check. [f] must return [true] when it finished its measurement
   and [false] (or raise [Out_of_budget]) when it was cut short. Engines
   outside [Enumerate] take [Budget.checker] as their
   [should_continue]. *)
let timed (f : Scliques_core.Budget.t -> bool) : outcome =
  let t0 = now () in
  let b = Scliques_core.Budget.create ~deadline_s:budget ~poll_every:1 () in
  let completed = try f b with Out_of_budget -> false in
  let dt = now () -. t0 in
  if completed then Seconds dt else Timeout

(* Time to produce [quota] results of an enumeration, budget-bounded.
   Completing the whole enumeration with fewer than [quota] results counts
   as success (everything available was produced). [run]'s own result (a
   run report, or nothing) is not looked at. *)
let time_first_n ~quota run : outcome =
  timed (fun b ->
      let got = ref 0 in
      let exception Enough in
      (try
         ignore
           (run b (fun _ ->
                incr got;
                if !got >= quota then raise Enough))
       with Enough -> ());
      !got >= quota || Scliques_core.Budget.poll b)

let print_table ~title ~columns ~rows =
  let width = 12 in
  let label_width =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 14 rows
  in
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-*s" label_width "";
  List.iter (fun c -> Printf.printf " %*s" width c) columns;
  print_newline ();
  List.iter
    (fun (label, cells) ->
      Printf.printf "%-*s" label_width label;
      List.iter (fun c -> Printf.printf " %*s" width (cell_to_string c)) cells;
      print_newline ())
    rows;
  flush stdout

let section title =
  Printf.printf "\n############ %s ############\n%!" title

(* Machine-readable sink next to the human tables: experiments append
   JSON snapshots (delay quantiles, cache counters) to files like
   BENCH_delay.json in the working directory, so successive runs leave a
   comparable perf trail. *)
let write_json ~path json =
  Scliques_obs.Sink.write_file ~path (Scliques_obs.Sink.to_string json);
  Printf.printf "[wrote %s]\n%!" path

(* Append one compact JSON object as a new line (JSONL), preserving the
   records of earlier runs — the scaling experiment accumulates a
   cross-commit perf trail this way. *)
let append_json ~path json =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Scliques_obs.Sink.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[appended to %s]\n%!" path
