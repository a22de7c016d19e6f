(* perfbench — the timed half of the repository benchmark (run.py is the
   other half: it builds this, caches inputs per seed, and prints the
   record).

     perfbench prepare WORKLOAD SEED DIR
       write the seeded inputs of WORKLOAD into the existing DIR
     perfbench run WORKLOAD INPUTS WORK SECONDS TRACE DAEMON SPANS
       one timed run on the inputs in INPUTS, scratch files in WORK;
       TRACE=1 records spans and writes them to SPANS; DAEMON is the
       scliques-daemon executable serve-churn starts

   A run prints one JSON line (see Report). *)

let usage () =
  prerr_endline
    "usage: perfbench prepare WORKLOAD SEED DIR\n\
    \       perfbench run WORKLOAD INPUTS WORK SECONDS TRACE DAEMON SPANS";
  exit 2

let run workload ~inputs ~work ~seconds ~traced ~daemon_exe ~spans_path =
  let tr = Trace.create traced in
  let r = Report.create () in
  let others =
    match workload with
    | "enum-dblp" ->
        Batch.enum_dblp ~inputs ~work ~seconds tr r;
        []
    | "pd-er" ->
        Batch.pd_er ~inputs ~work ~seconds tr r;
        []
    | "refresh-er" ->
        Batch.refresh_er ~inputs ~work ~seconds tr r;
        []
    | "serve-churn" -> Serve.serve_churn ~inputs ~work ~seconds ~daemon_exe tr r
    | _ -> usage ()
  in
  if traced then Trace.write spans_path (Trace.spans (tr :: others));
  Report.print r

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "prepare"; workload; seed; dir ]
    when List.exists (String.equal workload) Inputs.workloads -> (
      match int_of_string_opt seed with
      | Some seed -> Inputs.prepare workload ~seed dir
      | None -> usage ())
  | [ "run"; workload; inputs; work; seconds; trace; daemon_exe; spans_path ] -> (
      match (float_of_string_opt seconds, trace) with
      | Some seconds, ("0" | "1") ->
          run workload ~inputs ~work ~seconds ~traced:(String.equal trace "1")
            ~daemon_exe ~spans_path
      | _ -> usage ())
  | _ -> usage ()
