(* scliques — command-line front-end.

   scliques gen --family sf --nodes 1000 --avg-degree 10 -o g.edges
   scliques enum g.edges -s 2 --algorithm cs2pf --limit 100
   scliques stats g.edges
   scliques power g.edges -s 2 -o g2.edges *)

open Cmdliner

module E = Scliques_core.Enumerate
module NS = Sgraph.Node_set

(* ---------- shared arguments ---------- *)

let graph_file_arg =
  let doc = "Input graph file." in
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"GRAPH" ~doc)

let format_arg =
  let doc =
    "Graph file format: $(b,edgelist) (\"u v\" per line, # comments), \
     $(b,metis) (METIS adjacency format) or $(b,bin) (CRC-checked binary \
     snapshot written by $(b,convert --to bin))."
  in
  Arg.(
    value
    & opt (enum [ ("edgelist", `Edgelist); ("metis", `Metis); ("bin", `Bin) ]) `Edgelist
    & info [ "format" ] ~docv:"FMT" ~doc)

(* the one-line-diagnostic contract of Io_error: a malformed input exits 1
   with "file:line: msg", never cmdliner's uncaught-exception report *)
let or_parse_error f =
  match f () with
  | v -> v
  | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
      Printf.eprintf "scliques: error: %s\n%!" (Sgraph.Io_error.to_string ~file ~line msg);
      Stdlib.exit 1
  | exception Sys_error msg ->
      Printf.eprintf "scliques: error: %s\n%!" msg;
      Stdlib.exit 1

let load_graph format path =
  or_parse_error (fun () ->
      match format with
      | `Edgelist -> Sgraph.Edge_list_io.load path
      | `Metis -> Sgraph.Metis_io.load path
      | `Bin -> Sgraph.Snapshot.load path)

let s_arg =
  let doc = "The distance bound $(i,s) of the s-clique definition." in
  Arg.(value & opt int 2 & info [ "s" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic for a fixed seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let output_arg =
  let doc = "Output file (defaults to stdout)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* [-a ALG|par]: the algorithm, and whether it runs on the work-stealing
   engine ([par] is CSCliques2P across domains). [~rooted] refuses the
   algorithms without a root decomposition. *)
let algorithm_arg ?(rooted = false) ~doc () =
  let parse s =
    match String.lowercase_ascii s with
    | "par" | "parallel" -> Ok (E.Cs2_p, true)
    | _ -> (
        match E.of_name s with
        | Some alg when rooted && not (String.equal (E.checkpoint_family alg) "roots") ->
            Error
              (`Msg
                (Printf.sprintf "%s has no rooted decomposition; refresh \
                                 needs cs1/cs2/cs2f/cs2p/cs2pf or par"
                   (E.name alg)))
        | Some alg -> Ok (alg, false)
        | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s)))
  in
  let print fmt (alg, par) =
    Format.pp_print_string fmt (if par then "par" else E.name alg)
  in
  Arg.(
    value
    & opt (conv (parse, print)) (E.Cs2_pf, false)
    & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc)

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"W"
        ~doc:"Worker domains for $(b,-a par) (default: all cores).")

(* the algorithm and, for [par] only, its worker count *)
let engine (alg, par) workers =
  if par then (alg, Some (Option.value workers ~default:(E.default_workers ())))
  else (alg, None)

let engine_label (alg, par) = if par then "Parallel" else E.name alg

let write_graph g = function
  | Some path ->
      Sgraph.Edge_list_io.save g path;
      Printf.printf "wrote %s: %s\n" path (Sgraph.Metrics.summary g)
  | None -> print_string (Sgraph.Edge_list_io.to_string g)

(* ---------- gen ---------- *)

let gen_cmd =
  let family_arg =
    let families =
      [ ("er", `Er); ("sf", `Sf); ("ws", `Ws); ("community", `Community);
        ("proxy", `Proxy); ("gadget", `Gadget); ("path", `Path) ]
    in
    let doc =
      "Graph family: $(b,er) (Erdős–Rényi), $(b,sf) (scale-free preferential \
       attachment), $(b,ws) (Watts–Strogatz), $(b,community) (planted \
       partition), $(b,proxy) (social-network proxy), $(b,gadget) (the \
       paper's exponential-output gadget; --nodes is its parameter n), \
       $(b,path) (the deterministic path 0-1-...-(n-1))."
    in
    Arg.(value & opt (enum families) `Er & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let nodes_arg =
    Arg.(value & opt int 1000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let degree_arg =
    Arg.(
      value & opt float 10. & info [ "avg-degree" ] ~docv:"D" ~doc:"Average degree.")
  in
  let communities_arg =
    Arg.(
      value & opt int 20
      & info [ "communities" ] ~docv:"C" ~doc:"Community count (community/proxy).")
  in
  let run family n avg_degree communities seed output =
    let rng = Scoll.Rng.create seed in
    let g =
      match family with
      | `Er -> Sgraph.Gen.erdos_renyi rng ~n ~avg_degree
      | `Sf ->
          Sgraph.Gen.barabasi_albert rng ~n
            ~m_attach:(max 1 (int_of_float (avg_degree /. 2.)))
      | `Ws ->
          Sgraph.Gen.watts_strogatz rng ~n
            ~k:(max 1 (int_of_float (avg_degree /. 2.)))
            ~beta:0.1
      | `Community ->
          let per = float_of_int n /. float_of_int communities in
          let p_in = Float.min 1. (avg_degree /. per) in
          Sgraph.Gen.planted_partition rng ~n ~communities ~p_in ~p_out:0.001
      | `Proxy -> Sgraph.Gen.social_proxy rng ~n ~avg_degree ~communities
      | `Gadget -> Sgraph.Gen.exponential_gadget n
      | `Path -> Sgraph.Gen.path n
    in
    write_graph g output
  in
  let term =
    Term.(
      const run $ family_arg $ nodes_arg $ degree_arg $ communities_arg $ seed_arg
      $ output_arg)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic graph.") term

(* ---------- budgeted / checkpointed enumeration ---------- *)

module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint
module Stream = Scliques_core.Result_io.Stream
module Ridx = Scliques_core.Result_io.Index
module Nh = Scliques_core.Neighborhood

let print_set c =
  print_endline (String.concat " " (List.map string_of_int (NS.to_list c)))

(* The [--deadline]/[--max-results]/[--checkpoint]/[--resume] path: stream
   results as they are emitted, and on truncation (exit 3) leave behind a
   checkpoint a later run can [--resume]. Results are mirrored into the
   crash-safe record stream [CKPT.results] so a crash between emissions
   loses at most the unflushed tail, which the next run's clean-prefix
   truncation cuts off. *)
let budgeted_run g ~s ~algorithm ~workers ~min_size ~deadline ~max_results
    ~ckpt_path ~resume_path ~sigint_after =
  let alg_label = engine_label algorithm in
  let alg, workers = engine algorithm workers in
  let family = E.checkpoint_family alg in
  let n = Sgraph.Graph.n g and m = Sgraph.Graph.m g in
  (* checkpoints land in --checkpoint, defaulting to the file resumed from *)
  let ckpt_out = if ckpt_path <> None then ckpt_path else resume_path in
  let prior =
    match resume_path with
    | None -> None
    | Some p ->
        let c = Ckpt.load p in
        Ckpt.check_compat c ~s ~n ~m ~min_size;
        if Ckpt.family c.Ckpt.state <> family then
          failwith
            (Printf.sprintf
               "checkpoint %s holds a %S state; algorithm %s needs %S" p
               (Ckpt.family c.Ckpt.state) alg_label family);
        Some c
  in
  let budget =
    (* with the SIGINT self-test hook armed, poll every iteration so the
       pending signal is observed promptly *)
    Budget.create ?deadline_s:deadline ?max_results
      ?poll_every:(if sigint_after = None then None else Some 1)
      ()
  in
  (match prior with
  | Some c -> Budget.preload_results budget c.Ckpt.emitted
  | None -> ());
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> Budget.request_cancel budget));
  let stream =
    match ckpt_out with
    | None -> None
    | Some p ->
        let path = p ^ ".results" in
        if resume_path <> None && Sys.file_exists path then begin
          let _, clean_len, _ = Stream.read_records path in
          Some (Stream.open_append path ~clean_len)
        end
        else Some (Stream.open_writer path)
  in
  let to_kill = ref (match sigint_after with Some k -> k | None -> -1) in
  let emit c =
    print_set c;
    (match stream with Some w -> Stream.write_set w c | None -> ());
    if !to_kill > 0 then begin
      decr to_kill;
      if !to_kill = 0 then Unix.kill (Unix.getpid ()) Sys.sigint
    end
  in
  let finish outcome state_thunk =
    (match stream with Some w -> Stream.close w | None -> ());
    match outcome with
    | Budget.Complete ->
        (* a whole root-decomposed run gets the SCLQIDX1 sidecar: per-root
           fingerprints plus byte extents, so a later [refresh] can skip
           unchanged branches and splice the stream without decoding it *)
        (match ckpt_out with
        | Some p when String.equal family "roots" ->
            let path = p ^ ".results" in
            let idx =
              Ridx.build ~s ~n
                ~fingerprint:(Nh.root_fingerprint ~s g)
                path
            in
            Ridx.save idx (Ridx.path_for path)
        | _ -> ());
        (* the run is whole: a leftover checkpoint would make a later
           --resume skip work that belongs in a fresh run *)
        (match ckpt_out with
        | Some p when Sys.file_exists p -> Sys.remove p
        | _ -> ());
        0
    | Budget.Truncated reason -> (
        match ckpt_out with
        | Some p ->
            Ckpt.save
              {
                Ckpt.algorithm = alg_label;
                s;
                n;
                m;
                min_size;
                emitted = Budget.results budget;
                state = state_thunk ();
              }
              p;
            Printf.eprintf
              "scliques: truncated (%s); checkpoint written to %s\n%!"
              (Budget.reason_to_string reason)
              p;
            3
        | None ->
            Printf.eprintf
              "scliques: truncated (%s); no --checkpoint, progress lost\n%!"
              (Budget.reason_to_string reason);
            3)
  in
  let resume = Option.map (fun c -> c.Ckpt.state) prior in
  let report = E.run ~min_size ~budget ?resume ?workers alg g ~s emit in
  finish report.E.outcome (fun () -> Option.get report.E.resumable)

(* ---------- enum ---------- *)

let enum_cmd =
  let algorithm_arg =
    algorithm_arg
      ~doc:
        "Algorithm: $(b,pd) (PolyDelayEnum), $(b,cs1), $(b,cs2), $(b,cs2f), \
         $(b,cs2p), $(b,cs2pf) (Bron–Kerbosch adaptations; P = pivoting, F = \
         feasibility check), $(b,brute) (oracle, tiny graphs only), or $(b,par) \
         (work-stealing parallel CSCliques2P across domains; output is \
         canonicalized ascending, and $(b,--limit) truncates it after the full \
         run rather than stopping early)."
      ()
  in
  let limit_arg =
    Arg.(
      value & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Stop after the first $(docv) results.")
  in
  let min_size_arg =
    Arg.(
      value & opt int 0
      & info [ "min-size" ] ~docv:"K"
          ~doc:"Only report maximal connected s-cliques of at least $(docv) nodes.")
  in
  let count_arg =
    Arg.(value & flag & info [ "count" ] ~doc:"Print only the number of results.")
  in
  let stats_arg =
    let doc =
      "Print only run statistics in the given format: $(b,text) (size \
       statistics, one line) or $(b,json) (size statistics plus the \
       observability snapshot — per-result delay quantiles, N^s-cache \
       hit/miss/eviction counters, and the algorithm's search counters)."
    in
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
      & info [ "stats" ] ~docv:"FMT" ~doc)
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Stop after $(docv) wall-clock seconds (monotonic clock). A \
             truncated run exits with code 3 and, with $(b,--checkpoint), \
             leaves a resumable checkpoint.")
  in
  let max_results_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-results" ] ~docv:"N"
          ~doc:
            "Stop once $(docv) results were emitted, counted across \
             $(b,--resume) continuations. Exits with code 3 when the cap \
             fires.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "On truncation, write a resumable checkpoint to $(docv) \
             (atomically). Results are also streamed crash-safely to \
             $(docv).results as they are found. A run that completes \
             removes $(docv).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by an earlier truncated run \
             on the $(i,same) graph with the same $(b,-s)/$(b,--min-size); \
             only results not already streamed are produced. Further \
             checkpoints go to $(docv) unless $(b,--checkpoint) says \
             otherwise.")
  in
  let sigint_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sigint-after" ] ~docv:"N"
          ~doc:
            "Testing hook: raise SIGINT in-process after $(docv) results, \
             exercising the interrupt-handling path deterministically.")
  in
  let run file format s algorithm workers limit min_size count_only stats_fmt
      deadline max_results ckpt resume sigint_after =
    let budgeted =
      deadline <> None || max_results <> None || ckpt <> None || resume <> None
      || sigint_after <> None
    in
    if s < 1 then `Error (false, "s must be >= 1")
    else if budgeted && (limit <> None || count_only || stats_fmt <> None) then
      `Error
        ( false,
          "--deadline/--max-results/--checkpoint/--resume/--sigint-after \
           cannot be combined with --limit, --count or --stats" )
    else if budgeted then begin
      (* exit codes per the budget protocol: 0 complete, 3 truncated,
         1 error (bad checkpoint, unreadable graph, ...) *)
      match
        let g = load_graph format file in
        budgeted_run g ~s ~algorithm ~workers ~min_size ~deadline ~max_results
          ~ckpt_path:ckpt ~resume_path:resume ~sigint_after
      with
      | code -> Stdlib.exit code
      | exception Failure msg ->
          Printf.eprintf "scliques: error: %s\n%!" msg;
          Stdlib.exit 1
      | exception Invalid_argument msg ->
          Printf.eprintf "scliques: error: %s\n%!" msg;
          Stdlib.exit 1
      | exception Sys_error msg ->
          Printf.eprintf "scliques: error: %s\n%!" msg;
          Stdlib.exit 1
      | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
          Printf.eprintf "scliques: error: %s\n%!"
            (Sgraph.Io_error.to_string ~file ~line msg);
          Stdlib.exit 1
    end
    else begin
      (match limit with
      | Some n when n < 0 ->
          prerr_endline "scliques: error: --limit must be >= 0";
          Stdlib.exit 1
      | _ -> ());
      let g = load_graph format file in
      let alg, workers = engine algorithm workers in
      (* observe only when the observability output was asked for, so the
         default enumeration path stays uninstrumented *)
      let obs =
        match stats_fmt with Some `Json -> Some (Scliques_obs.Obs.create ()) | _ -> None
      in
      (* the parallel engine and the brute oracle have no ascending
         stream order: their whole output is sorted (then cut to
         --limit), so it is the same for every run and worker count *)
      let canonical =
        match (workers, alg) with Some _, _ | None, E.Brute -> true | None, _ -> false
      in
      let results =
        match limit with
        | Some n when not canonical -> E.first_n ~min_size ?obs alg g ~s n
        | _ ->
            let acc = ref [] in
            let (_ : E.run_report) =
              E.run ~min_size ?obs ?workers alg g ~s (fun c -> acc := c :: !acc)
            in
            let all = if canonical then List.sort NS.compare !acc else List.rev !acc in
            List.filteri
              (fun i _ -> match limit with Some n -> i < n | None -> true)
              all
      in
      if count_only then Printf.printf "%d\n" (List.length results)
      else begin
        match stats_fmt with
        | Some `Text ->
            Format.printf "%a@." Scliques_core.Stats.pp
              (Scliques_core.Stats.of_results results)
        | Some `Json ->
            let stats = Scliques_core.Stats.of_results results in
            let open Scliques_obs in
            let obs_fields =
              match obs with
              | Some o -> (
                  match Obs.snapshot_json o with Sink.Obj fields -> fields | _ -> [])
              | None -> []
            in
            let json =
              Sink.Obj
                ([
                   ("algorithm", Sink.String (engine_label algorithm));
                   ("s", Sink.Int s);
                   ( "results",
                     Sink.Obj
                       [
                         ("count", Sink.Int stats.Scliques_core.Stats.count);
                         ("min_size", Sink.Int stats.Scliques_core.Stats.min_size);
                         ("avg_size", Sink.Float stats.Scliques_core.Stats.avg_size);
                         ("max_size", Sink.Int stats.Scliques_core.Stats.max_size);
                         ("total_nodes", Sink.Int stats.Scliques_core.Stats.total_nodes);
                       ] );
                 ]
                @ obs_fields)
            in
            print_endline (Sink.to_string json)
        | None -> List.iter print_set results
      end;
      `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const run $ graph_file_arg $ format_arg $ s_arg $ algorithm_arg
       $ workers_arg $ limit_arg $ min_size_arg $ count_arg $ stats_arg
       $ deadline_arg $ max_results_arg $ checkpoint_arg $ resume_arg
       $ sigint_after_arg))
  in
  Cmd.v
    (Cmd.info "enum"
       ~doc:
         "Enumerate all maximal connected s-cliques of a graph (one per line, \
          space-separated node ids). With $(b,--deadline), \
          $(b,--max-results), $(b,--checkpoint) or $(b,--resume) the run is \
          budgeted: exit code 0 means the output is complete, 3 means it was \
          truncated (resumable via the checkpoint), 1 means an error.")
    term

(* ---------- stats ---------- *)

let stats_cmd =
  let run file format =
    let g = load_graph format file in
    print_endline (Sgraph.Metrics.summary g);
    Printf.printf "components=%d degeneracy=%d approx_diameter=%d clustering=%.4f\n"
      (Sgraph.Components.count g)
      (Sgraph.Degeneracy.degeneracy g)
      (Sgraph.Metrics.approx_diameter g)
      (Sgraph.Metrics.global_clustering g)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print structural statistics of a graph.")
    Term.(const run $ graph_file_arg $ format_arg)

(* ---------- power ---------- *)

let power_cmd =
  let run file format s output =
    if s < 1 then `Error (false, "s must be >= 1")
    else begin
      let g = load_graph format file in
      write_graph (Sgraph.Power.power g ~s) output;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:
         "Write the power graph G^s (edges between nodes at distance at most s; \
          Remark 1 of the paper).")
    Term.(ret (const run $ graph_file_arg $ format_arg $ s_arg $ output_arg))

(* ---------- verify ---------- *)

let verify_cmd =
  let results_arg =
    let doc = "Results file: one node set per line (the output of $(b,enum))." in
    Arg.(required & pos 1 (some non_dir_file) None & info [] ~docv:"RESULTS" ~doc)
  in
  let complete_arg =
    Arg.(
      value & flag
      & info [ "complete" ]
          ~doc:
            "Additionally check completeness by re-enumerating and comparing \
             counts (may be expensive).")
  in
  let run file format results_file s complete =
    if s < 1 then `Error (false, "s must be >= 1")
    else begin
      let g = load_graph format file in
      let results = or_parse_error (fun () -> Scliques_core.Result_io.load results_file) in
      match Scliques_core.Verify.certify g ~s results with
      | Error msg -> `Error (false, "certification failed: " ^ msg)
      | Ok () ->
          if complete then begin
            let expected = (E.run E.Cs2_pf g ~s ignore).E.emitted in
            if expected <> List.length results then
              `Error
                ( false,
                  Printf.sprintf "incomplete: file has %d sets, graph has %d"
                    (List.length results) expected )
            else begin
              Printf.printf "OK: %d sets, all maximal connected %d-cliques, complete\n"
                (List.length results) s;
              `Ok ()
            end
          end
          else begin
            Printf.printf
              "OK: %d sets, all distinct maximal connected %d-cliques\n"
              (List.length results) s;
            `Ok ()
          end
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Certify that a results file contains distinct maximal connected \
          s-cliques of the graph.")
    Term.(
      ret (const run $ graph_file_arg $ format_arg $ results_arg $ s_arg $ complete_arg))

(* ---------- convert ---------- *)

let convert_cmd =
  let to_arg =
    let doc =
      "Output format: $(b,edgelist), $(b,metis), $(b,dot) or $(b,bin) \
       (CRC-checked binary snapshot; requires $(b,-o))."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("edgelist", `Edgelist); ("metis", `Metis); ("dot", `Dot);
               ("bin", `Bin) ])
          `Metis
      & info [ "to" ] ~docv:"FMT" ~doc)
  in
  let relabel_arg =
    Arg.(
      value & flag
      & info [ "relabel" ]
          ~doc:
            "Renumber nodes into degeneracy order before writing (node 0 is \
             the first peeled). Cache-friendlier CSR rows for the \
             enumeration kernels; the node ids in enumeration output change \
             accordingly.")
  in
  let run file format target relabel output =
    let g = load_graph format file in
    let g =
      if relabel then Sgraph.Graph.relabel g ~order:(Sgraph.Degeneracy.ordering g)
      else g
    in
    match target with
    | `Bin -> (
        match output with
        | None -> `Error (false, "--to bin writes binary output; -o is required")
        | Some path ->
            Sgraph.Snapshot.save g path;
            Printf.printf "wrote %s: %s\n" path (Sgraph.Metrics.summary g);
            `Ok ())
    | (`Edgelist | `Metis | `Dot) as target ->
        let text =
          match target with
          | `Edgelist -> Sgraph.Edge_list_io.to_string g
          | `Metis -> Sgraph.Metis_io.to_string g
          | `Dot -> Sgraph.Dot.to_dot g
        in
        (match output with
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "wrote %s: %s\n" path (Sgraph.Metrics.summary g)
        | None -> print_string text);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a graph between edge-list, METIS, DOT and binary-snapshot \
          formats, optionally relabeling into degeneracy order.")
    Term.(ret (const run $ graph_file_arg $ format_arg $ to_arg $ relabel_arg $ output_arg))

(* ---------- diff / mutate / refresh (edge churn) ---------- *)

let diff_file_arg =
  let doc = "SGRDIFF1 edit-script file (written by $(b,diff))." in
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "diff" ] ~docv:"FILE" ~doc)

let load_diff_for g path =
  or_parse_error (fun () ->
      let header, edits = Sgraph.Diff.load path in
      Sgraph.Diff.check_base ~file:path header g;
      edits)

let apply_diff g path =
  let edits = load_diff_for g path in
  match Sgraph.Diff.apply g edits with
  | g' -> (edits, g')
  | exception Invalid_argument msg ->
      (* strict replay refused an edit: same one-line contract as a parse
         error — the script does not belong to this graph *)
      Printf.eprintf "scliques: error: %s: %s\n%!" path msg;
      Stdlib.exit 1

let diff_cmd =
  let new_file_arg =
    let doc = "The edited graph (same node count, same format)." in
    Arg.(required & pos 1 (some non_dir_file) None & info [] ~docv:"NEW" ~doc)
  in
  let run old_file format new_file output =
    match output with
    | None -> `Error (false, "diff writes binary output; -o is required")
    | Some out ->
        let g0 = load_graph format old_file in
        let g1 = load_graph format new_file in
        if Sgraph.Graph.n g0 <> Sgraph.Graph.n g1 then
          `Error
            ( false,
              Printf.sprintf "node counts differ (%d vs %d); diffs cover edge \
                              churn only"
                (Sgraph.Graph.n g0) (Sgraph.Graph.n g1) )
        else begin
          let edits = Sgraph.Diff.between g0 g1 in
          let inserts =
            List.length
              (List.filter
                 (fun e ->
                   match e with Sgraph.Overlay.Insert _ -> true | _ -> false)
                 edits)
          in
          Sgraph.Diff.save ~base_n:(Sgraph.Graph.n g0) ~base_m:(Sgraph.Graph.m g0)
            edits out;
          Printf.printf "wrote %s: %d edits (%d inserts, %d deletes) against %s\n"
            out (List.length edits) inserts
            (List.length edits - inserts)
            (Sgraph.Metrics.summary g0);
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Write the CRC-checked SGRDIFF1 edit script transforming one graph \
          into another (same node set, edge churn only). Replayed strictly by \
          $(b,mutate) and $(b,refresh).")
    Term.(ret (const run $ graph_file_arg $ format_arg $ new_file_arg $ output_arg))

let mutate_cmd =
  let to_arg =
    let doc = "Output format: $(b,edgelist) or $(b,bin) (requires $(b,-o))." in
    Arg.(
      value
      & opt (enum [ ("edgelist", `Edgelist); ("bin", `Bin) ]) `Edgelist
      & info [ "to" ] ~docv:"FMT" ~doc)
  in
  let run file format diff_file target output =
    let g = load_graph format file in
    let edits, g' = apply_diff g diff_file in
    match target with
    | `Bin -> (
        match output with
        | None -> `Error (false, "--to bin writes binary output; -o is required")
        | Some path ->
            Sgraph.Snapshot.save g' path;
            Printf.printf "applied %d edits; wrote %s: %s\n" (List.length edits)
              path
              (Sgraph.Metrics.summary g');
            `Ok ())
    | `Edgelist ->
        (match output with
        | Some path ->
            Sgraph.Edge_list_io.save g' path;
            Printf.printf "applied %d edits; wrote %s: %s\n" (List.length edits)
              path
              (Sgraph.Metrics.summary g')
        | None -> print_string (Sgraph.Edge_list_io.to_string g'));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Apply an SGRDIFF1 edit script to a graph (strict replay: the \
          script's recorded base and every edit must match) and write the \
          mutated graph.")
    Term.(
      ret (const run $ graph_file_arg $ format_arg $ diff_file_arg $ to_arg
         $ output_arg))

let refresh_cmd =
  let results_file_arg =
    let doc =
      "Prior result stream for the unmutated graph: the crash-safe \
       $(b,.results) file written by $(b,enum --checkpoint). Must be \
       complete (exit code 0 of the run that wrote it)."
    in
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "results" ] ~docv:"FILE" ~doc)
  in
  let engine_arg =
    algorithm_arg ~rooted:true
      ~doc:
        "Re-enumeration engine for the affected roots: $(b,cs1), $(b,cs2), \
         $(b,cs2f), $(b,cs2p), $(b,cs2pf), or $(b,par) (work-stealing \
         domains)."
      ()
  in
  let min_size_arg =
    Arg.(
      value & opt int 0
      & info [ "min-size" ] ~docv:"K"
          ~doc:
            "Size bound the prior run used; the refreshed answer keeps the \
             same bound.")
  in
  let run file format diff_file results_file s engine workers min_size output =
    if s < 1 then `Error (false, "s must be >= 1")
    else begin
      let before = load_graph format file in
      let edits = load_diff_for before diff_file in
      let after =
        match Sgraph.Diff.apply before edits with
        | g -> g
        | exception Invalid_argument msg ->
            Printf.eprintf "scliques: error: %s: %s\n%!" diff_file msg;
            Stdlib.exit 1
      in
      let prior, prior_len =
        match
          or_parse_error (fun () -> Stream.read_records results_file)
        with
        | payloads, clean_len, `Clean ->
            ( or_parse_error (fun () ->
                  List.map (Stream.decode_set ~file:results_file) payloads),
              clean_len )
        | _, _, `Torn ->
            (* a torn prior is an incomplete answer: refreshing it would
               bake the missing tail into the "unaffected" half *)
            Printf.eprintf
              "scliques: error: %s: result stream has a torn tail (the prior \
               run did not complete); re-enumerate instead of refreshing\n%!"
              results_file;
            Stdlib.exit 1
      in
      (* streams are root-contiguous but not globally sorted (parallel runs
         commit roots in retirement order); refresh's sorted-input contract
         is established here, once, at load time *)
      let prior = List.sort NS.compare prior in
      let touched = Sgraph.Overlay.touched edits in
      let n = Sgraph.Graph.n before in
      let index =
        let ipath = Ridx.path_for results_file in
        if not (Sys.file_exists ipath) then None
        else
          match Ridx.load ipath with
          | idx
            when idx.Ridx.stream_len = prior_len
                 && idx.Ridx.s = s
                 && Ridx.n idx = n ->
              Some idx
          | _ ->
              Printf.eprintf
                "scliques: refresh: ignoring index %s (stale: wrong graph, \
                 s, or stream length)\n%!"
                ipath;
              None
          | exception Sgraph.Io_error.Parse_error _ ->
              Printf.eprintf
                "scliques: refresh: ignoring index %s (corrupt)\n%!" ipath;
              None
          | exception Sys_error msg ->
              Printf.eprintf
                "scliques: refresh: ignoring index %s (unreadable: %s)\n%!"
                ipath msg;
              None
      in
      let prior_fingerprint =
        Option.map
          (fun idx r -> Some idx.Ridx.entries.(r).Ridx.fingerprint)
          index
      in
      let engine =
        match engine with (alg, false) -> `Seq alg | (_, true) -> `Par workers
      in
      let delta =
        E.refresh ~min_size ~engine ~edits ?prior_fingerprint ~before ~after
          ~touched ~s ~prior ()
      in
      (match output with
      | None -> ()
      | Some path -> (
          match index with
          | Some idx ->
              (* seek-and-patch: re-encode only the re-run roots (the ones
                 whose fingerprint moved) and copy every other root's bytes
                 verbatim; the updated sidecar lands beside [out] *)
              let rerun = Hashtbl.create 16 in
              List.iter
                (fun (root, fp) ->
                  if idx.Ridx.entries.(root).Ridx.fingerprint <> fp then
                    Hashtbl.replace rerun root (fp, ref []))
                delta.E.root_fingerprints;
              List.iter
                (fun c ->
                  match Hashtbl.find_opt rerun (NS.min_elt c) with
                  | Some (_, acc) -> acc := c :: !acc
                  | None -> ())
                delta.E.results;
              let patched =
                Hashtbl.fold
                  (fun root (fp, acc) l -> (root, fp, List.rev !acc) :: l)
                  rerun []
              in
              let (_ : Ridx.t), st =
                or_parse_error (fun () ->
                    Ridx.splice ~old_stream:results_file ~index:idx ~patched
                      ~out:path)
              in
              Printf.eprintf
                "scliques: refresh: spliced %d roots (%d bytes fresh, %d \
                 bytes copied)\n%!"
                st.Ridx.roots_patched st.Ridx.fresh_bytes st.Ridx.copied_bytes
          | None ->
              (* no usable index: write the stream whole, then leave an
                 index behind so the next refresh can splice *)
              let w = Stream.open_writer path in
              List.iter (Stream.write_set w) delta.E.results;
              Stream.close w;
              let idx =
                Ridx.build ~s ~n
                  ~fingerprint:(Nh.root_fingerprint ~s after)
                  path
              in
              Ridx.save idx (Ridx.path_for path)));
      List.iter print_set delta.E.results;
      Printf.eprintf
        "scliques: refresh: %d edits touching %d nodes; %d roots re-run, %d \
         skipped, +%d -%d results (%d total)\n%!"
        (List.length edits) (List.length touched) delta.E.roots_rerun
        delta.E.roots_skipped
        (List.length delta.E.added)
        (List.length delta.E.removed)
        (List.length delta.E.results);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "refresh"
       ~doc:
         "Incrementally update a complete enumeration after edge churn: apply \
          an SGRDIFF1 script, re-enumerate only the affected root branches \
          whose per-root fingerprint actually changed, and splice the rest of \
          the prior result stream through unchanged. When the stream has an \
          SCLQIDX1 sidecar (written by $(b,enum --checkpoint) and by this \
          command), stored fingerprints replace the before-graph digests and \
          $(b,-o) patches the stream by byte extent instead of rewriting it. \
          Prints the refreshed answer (canonically sorted) and, with \
          $(b,-o), writes it as a result stream plus a fresh sidecar.")
    Term.(
      ret
        (const run $ graph_file_arg $ format_arg $ diff_file_arg
       $ results_file_arg $ s_arg $ engine_arg $ workers_arg $ min_size_arg
       $ output_arg))

(* ---------- client ---------- *)

module Dproto = Scliques_daemon.Protocol
module Dclient = Scliques_daemon.Client
module Dserver = Scliques_daemon.Server

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon's Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Daemon's TCP endpoint.")

let token_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "token" ] ~docv:"TOKEN"
        ~doc:
          "Client identity for the daemon's per-client quota: connections \
           announcing the same token share one quota bucket, and the bucket \
           survives reconnects. Without it the daemon bills by peer address \
           (TCP) or per-connection (Unix socket).")

let cdie fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "scliques: client: %s\n%!" msg;
      Stdlib.exit 1)
    fmt

let client_addr socket tcp =
  match (socket, tcp) with
  | Some _, Some _ -> cdie "--socket and --tcp are mutually exclusive"
  | Some path, None -> Dserver.Unix_socket path
  | None, Some spec -> (
      match String.rindex_opt spec ':' with
      | None -> cdie "--tcp %S: expected HOST:PORT" spec
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p <= 0xFFFF -> Dserver.Tcp (host, p)
          | _ -> cdie "--tcp %S: bad port" spec))
  | None, None -> cdie "one of --socket PATH or --tcp HOST:PORT is required"

let client_connect ?token addr =
  match Dclient.connect addr with
  | c ->
      (* announce the quota identity before any billable request *)
      (match token with
      | Some tok -> Dclient.hello c ~token:tok
      | None -> ());
      c
  | exception Unix.Unix_error (e, _, _) ->
      cdie "cannot reach the daemon: %s" (Unix.error_message e)
  | exception Dproto.Error e ->
      cdie "handshake failed: %s" (Dproto.error_to_string e)

let client_id_arg =
  Arg.(
    value & opt int 1
    & info [ "id" ] ~docv:"ID" ~doc:"Client-chosen request id (echoed back).")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "On a quota refusal (Retry_after), sleep the advertised wait and \
           retry, at most $(docv) times, before giving up with exit code 6.")

(* The quota's advertised wait is honest (refusals are free), so the
   backoff is simply that wait — padded a little more on each attempt in
   case other clients drained the refill meanwhile. *)
let throttled ~what ~attempt ~retries wait =
  if attempt < retries then begin
    let pause = Float.max 0.001 wait +. (0.05 *. float_of_int attempt) in
    Printf.eprintf "scliques: client: %s throttled; retry %d/%d in %.3fs\n%!"
      what (attempt + 1) retries pause;
    Unix.sleepf pause;
    `Retry
  end
  else begin
    Printf.eprintf
      "scliques: client: %s refused by the per-client quota; retry after \
       %.3fs\n%!"
      what wait;
    Stdlib.exit 6
  end

let client_query_term =
  let graph_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH"
          ~doc:"Name of a graph preloaded by the daemon.")
  in
  let algorithm_arg =
    algorithm_arg ~doc:"Engine the daemon runs: the $(b,enum) names, or $(b,par)." ()
  in
  let min_size_arg =
    Arg.(
      value & opt int 0
      & info [ "min-size" ] ~docv:"K" ~doc:"Only results with at least $(docv) nodes.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-query budget; a truncated query exits 3 and is resumable.")
  in
  let max_results_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-results" ] ~docv:"N"
          ~doc:"Stop the query after $(docv) results (counted across \
                $(b,--resume) continuations).")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"On truncation, write the daemon's resume token to $(docv); \
                a complete query removes it.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Resume from a token written by an earlier truncated query \
                against the same graph/s/min-size.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just check the daemon is alive.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the daemon's graphs (name, nodes, edges).")
  in
  let corrupt_arg =
    Arg.(
      value & flag
      & info [ "corrupt" ]
          ~doc:"Drill: send a garbage frame and show the typed refusal.")
  in
  let busy_drill_arg =
    Arg.(
      value & flag
      & info [ "busy-drill" ]
          ~doc:"Drill: occupy the daemon with one streaming query, then show \
                a second connection being refused with Busy (run the daemon \
                with $(b,--workers 1 --max-queue 0)).")
  in
  let die = cdie in
  let graph_meta c name =
    match
      List.find_opt (fun gi -> String.equal gi.Dproto.g_name name)
        (Dclient.list_graphs c)
    with
    | Some gi -> (gi.Dproto.g_n, gi.Dproto.g_m)
    | None -> die "daemon serves no graph %S" name
  in
  let run socket tcp token graph algorithm s min_size deadline max_results
      ckpt resume id retry ping list corrupt busy_drill =
    (* the wire names [par] itself: the daemon picks its worker count *)
    let engine =
      match algorithm with alg, false -> Dproto.Alg alg | _, true -> Dproto.Par
    in
    let addr = client_addr socket tcp in
    let connect addr = client_connect ?token addr in
    if ping then begin
      let c = connect addr in
      let ok = Dclient.ping c in
      Dclient.close c;
      if ok then begin
        print_endline "pong";
        Stdlib.exit 0
      end
      else die "no pong"
    end
    else if list then begin
      let c = connect addr in
      List.iter
        (fun gi ->
          Printf.printf "%s n=%d m=%d epoch=%d\n" gi.Dproto.g_name
            gi.Dproto.g_n gi.Dproto.g_m gi.Dproto.g_epoch)
        (Dclient.list_graphs c);
      Dclient.close c;
      Stdlib.exit 0
    end
    else if corrupt then begin
      let c = connect addr in
      (* a garbage length word: the daemon must answer a typed refusal,
         then hang up — never hang or die *)
      Dclient.send_raw c "\xde\xad\xbe\xef\xde\xad\xbe\xef";
      (match Dclient.read_response c with
      | Some (Dproto.Error_resp { e_code = Dproto.Bad_request; e_msg; _ }) ->
          Printf.printf "refused: %s\n" e_msg
      | Some _ -> die "expected a Bad_request refusal"
      | None -> die "daemon hung up without the typed refusal"
      | exception Dproto.Error e ->
          die "corrupt answer: %s" (Dproto.error_to_string e));
      (match Dclient.read_response c with
      | None -> ()
      | Some _ -> die "daemon kept talking after a framing error")
      |> ignore;
      Dclient.close c;
      Stdlib.exit 0
    end
    else begin
      let graph = match graph with Some g -> g | None -> die "GRAPH name required" in
      if s < 1 then die "s must be >= 1";
      if busy_drill then begin
        (* conn A streams; only after its first result is the daemon
           provably running=1, so conn B's refusal is deterministic *)
        let a = connect addr in
        let first = ref true in
        let refusal = ref None in
        let outcome =
          Dclient.run_query a
            ~on_result:(fun _ ->
              if !first then begin
                first := false;
                let b = connect addr in
                (match
                   Dclient.run_query b
                     {
                       Dproto.q_id = id + 1;
                       q_engine = engine;
                       q_graph = graph;
                       q_s = s;
                       q_min_size = min_size;
                       q_deadline_s = None;
                       q_max_results = None;
                       q_resume = None;
                     }
                 with
                | Dclient.Refused { running; queued } ->
                    refusal := Some (running, queued)
                | _ -> ());
                Dclient.close b;
                Dclient.cancel a id
              end)
            {
              Dproto.q_id = id;
              q_engine = engine;
              q_graph = graph;
              q_s = s;
              q_min_size = min_size;
              q_deadline_s = None;
              q_max_results = None;
              q_resume = None;
            }
        in
        Dclient.close a;
        match (!refusal, outcome) with
        | Some (running, queued), _ ->
            Printf.printf "busy: running=%d queued=%d\n" running queued;
            Stdlib.exit 0
        | None, Dclient.Finished _ ->
            die "drill query finished before the daemon looked busy \
                 (use a bigger graph)"
        | None, _ -> die "no Busy refusal observed"
      end
      else begin
        let c = connect addr in
        let n, m = graph_meta c graph in
        let prior =
          match resume with
          | None -> None
          | Some p ->
              let ck =
                match Ckpt.load p with
                | ck -> ck
                | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
                    die "%s" (Sgraph.Io_error.to_string ~file ~line msg)
              in
              Ckpt.check_compat ck ~s ~n ~m ~min_size;
              Some ck
        in
        let ckpt_out = if ckpt <> None then ckpt else resume in
        let q =
          {
            Dproto.q_id = id;
            q_engine = engine;
            q_graph = graph;
            q_s = s;
            q_min_size = min_size;
            q_deadline_s = deadline;
            q_max_results = max_results;
            q_resume = Option.map (fun ck -> ck.Ckpt.state) prior;
          }
        in
        let rec attempt tries =
          match Dclient.run_query c ~on_result:print_endline q with
          | Dclient.Throttled wait -> (
              (* no result streamed yet — the quota refused admission, so
                 resending the identical query is safe *)
              match throttled ~what:"query" ~attempt:tries ~retries:retry wait with
              | `Retry -> attempt (tries + 1))
          | outcome -> outcome
        in
        let outcome = attempt 0 in
        Dclient.close c;
        match outcome with
        | Dclient.Throttled _ -> assert false (* [attempt] never returns it *)
        | Dclient.Finished d -> (
            match d.Dproto.d_outcome with
            | Budget.Complete ->
                (match ckpt_out with
                | Some p when Sys.file_exists p -> Sys.remove p
                | _ -> ());
                Stdlib.exit 0
            | Budget.Truncated reason -> (
                let prior_emitted =
                  match prior with Some ck -> ck.Ckpt.emitted | None -> 0
                in
                match (ckpt_out, d.Dproto.d_resume) with
                | Some p, Some state ->
                    Ckpt.save
                      {
                        Ckpt.algorithm = engine_label algorithm;
                        s;
                        n;
                        m;
                        min_size;
                        emitted = prior_emitted + d.Dproto.d_emitted;
                        state;
                      }
                      p;
                    Printf.eprintf
                      "scliques: truncated (%s); checkpoint written to %s\n%!"
                      (Budget.reason_to_string reason)
                      p;
                    Stdlib.exit 3
                | _ ->
                    Printf.eprintf
                      "scliques: truncated (%s); no --checkpoint, progress \
                       lost\n%!"
                      (Budget.reason_to_string reason);
                    Stdlib.exit 3))
        | Dclient.Refused { running; queued } ->
            Printf.eprintf "scliques: busy (running=%d queued=%d)\n%!" running
              queued;
            Stdlib.exit 5
        | Dclient.Failed { msg; _ } -> die "%s" msg
        | Dclient.Disconnected -> die "daemon hung up mid-query"
      end
    end
  in
  Term.(
    const run $ socket_arg $ tcp_arg $ token_arg $ graph_arg $ algorithm_arg
    $ s_arg $ min_size_arg $ deadline_arg $ max_results_arg $ checkpoint_arg
    $ resume_arg $ client_id_arg $ retry_arg $ ping_arg $ list_arg
    $ corrupt_arg $ busy_drill_arg)

let client_mutate_cmd =
  let graph_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH" ~doc:"Name of a graph preloaded by the daemon.")
  in
  let script_arg =
    let doc = "SGRDIFF1 edit-script file (written by $(b,scliques diff))." in
    Arg.(required & pos 1 (some non_dir_file) None & info [] ~docv:"FILE" ~doc)
  in
  let run socket tcp token graph script_file id retry =
    let addr = client_addr socket tcp in
    let script =
      let ic = open_in_bin script_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (* validate locally with the daemon's own decoder, so a corrupt file
       dies with a byte-precise diagnostic before any bytes hit the wire
       (the daemon revalidates regardless) *)
    (match Sgraph.Diff.of_string ~file:script_file script with
    | (_ : Sgraph.Diff.header * Sgraph.Overlay.edit list) -> ()
    | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
        cdie "%s" (Sgraph.Io_error.to_string ~file ~line msg));
    let c = client_connect ?token addr in
    let rec attempt tries =
      match Dclient.mutate c ~id ~graph ~script with
      | Dclient.Applied { epoch; edits; n; m } ->
          Printf.printf "applied %d edits; %s now n=%d m=%d epoch=%d\n" edits
            graph n m epoch;
          Dclient.close c;
          Stdlib.exit 0
      | Dclient.Mutate_throttled wait -> (
          match
            throttled ~what:"mutation" ~attempt:tries ~retries:retry wait
          with
          | `Retry -> attempt (tries + 1))
      | Dclient.Mutate_failed { msg; _ } -> cdie "%s" msg
      | Dclient.Mutate_disconnected -> cdie "daemon hung up mid-mutation"
    in
    attempt 0
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Apply an SGRDIFF1 edit script to a graph served by a running \
          $(b,scliques-daemon). The daemon journals the edits durably \
          (flush-before-ack) and acks with the new epoch; queries already \
          running are unaffected. The script's header must name the graph's \
          $(i,current) (n, m) — see $(b,client --list) for the epoch. Exit \
          code 0 applied, 6 quota-refused (after $(b,--retry) attempts), 1 \
          error.")
    Term.(
      const run $ socket_arg $ tcp_arg $ token_arg $ graph_arg $ script_arg
      $ client_id_arg $ retry_arg)

let client_reload_cmd =
  let graph_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH" ~doc:"Name of a graph preloaded by the daemon.")
  in
  let run socket tcp graph id =
    let addr = client_addr socket tcp in
    let c = client_connect addr in
    match Dclient.reload c ~id ~graph with
    | Dclient.Swapped { epoch; n; m } ->
        Printf.printf "reloaded %s: n=%d m=%d epoch=%d\n" graph n m epoch;
        Dclient.close c;
        Stdlib.exit 0
    | Dclient.Reload_failed { msg; _ } -> cdie "%s" msg
    | Dclient.Reload_disconnected -> cdie "daemon hung up mid-reload"
  in
  Cmd.v
    (Cmd.info "reload"
       ~doc:
         "Hot-swap a graph served by a running $(b,scliques-daemon): re-read \
          it from its source snapshot (sessions survive; in-flight queries \
          finish on the epoch they were admitted under). Equivalent to \
          sending the daemon SIGHUP, for one graph.")
    Term.(const run $ socket_arg $ tcp_arg $ graph_arg $ client_id_arg)

let client_cmd =
  Cmd.group
    ~default:client_query_term
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,scliques-daemon) over the SCLQRPC1 socket \
          protocol. With no subcommand: stream all maximal connected \
          s-cliques of a preloaded graph. Exit code 0 means the answer is \
          complete, 3 truncated (resumable via $(b,--checkpoint)), 5 refused \
          by admission control, 6 refused by the per-client quota, 1 error.")
    [ client_mutate_cmd; client_reload_cmd ]

let () =
  let doc = "maximal connected s-clique enumeration (Behar & Cohen, EDBT 2018)" in
  let info = Cmd.info "scliques" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; enum_cmd; stats_cmd; power_cmd; convert_cmd; verify_cmd;
            diff_cmd; mutate_cmd; refresh_cmd; client_cmd ]))
