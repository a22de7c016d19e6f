(* One function per table/figure of the paper's evaluation (§7), plus the
   ablation studies listed in DESIGN.md. Each prints a table in the shape
   of the corresponding figure; EXPERIMENTS.md records paper-vs-measured. *)

module E = Scliques_core.Enumerate
module Budget = Scliques_core.Budget
module Cs2 = Scliques_core.Cs_cliques2
module Pd = Scliques_core.Poly_delay
module Nh = Scliques_core.Neighborhood
module G = Sgraph.Graph
module NS = Sgraph.Node_set

let quota = 100 (* the paper measures "time to return 100 connected s-cliques" *)

let abbrev n =
  if n >= 1_000_000 then Printf.sprintf "%dM" (n / 1_000_000)
  else if n >= 1000 then Printf.sprintf "%dK" (n / 1000)
  else string_of_int n

(* time to the first [quota] results of [alg] on [g], as the search finds
   them. Without [optimized], Fig. 10's baseline: the full enumeration
   runs and small results are merely filtered out of the output. That
   run has no budget, so it streams too; every result passes the
   filter, which checks the deadline at each one. *)
let first_n ?(min_size = 0) ?(optimized = true) ?(quota = quota) ?obs alg g ~s =
  Harness.time_first_n ~quota (fun budget yield ->
      if optimized then List.iter yield (E.first_n ~min_size ?obs ~budget alg g ~s quota)
      else
        let (_ : E.run_report) =
          E.run ?obs alg g ~s (fun c ->
              if not (Budget.poll budget) then raise Harness.Out_of_budget;
              if NS.cardinal c >= min_size then yield c)
        in
        ())

let sweep ~title ~columns ~algorithms ~cell =
  let rows = List.map (fun alg -> (E.name alg, List.map (cell alg) columns)) algorithms in
  Harness.print_table ~title
    ~columns:(List.map fst columns)
    ~rows

(* ---------- §7 dataset table ---------- *)

let datasets () =
  Printf.printf "\n== Datasets (paper: SNAP; here: synthetic proxies, DESIGN.md §4) ==\n";
  Printf.printf "%-12s %22s %22s %8s %10s\n" "" "paper (n, m)" "proxy (n, m)" "avg_deg"
    "triangles";
  List.iter
    (fun d ->
      let g = d.Workloads.proxy () in
      Printf.printf "%-12s %22s %22s %8.1f %10d\n" d.Workloads.name
        (Printf.sprintf "(%d, %d)" d.Workloads.paper_nodes d.Workloads.paper_edges)
        (Printf.sprintf "(%d, %d)" (G.n g) (G.m g))
        (Sgraph.Metrics.avg_degree g)
        (Sgraph.Metrics.triangle_count g))
    (Workloads.datasets ());
  flush stdout

(* ---------- Figure 9 ---------- *)

let fig9a () =
  sweep ~title:"Fig 9a: Bron-Kerbosch adaptations, ER graphs, s=2, first 100"
    ~columns:
      (List.map (fun n -> ("ER" ^ abbrev n, n)) Workloads.er_sizes_9a)
    ~algorithms:[ E.Cs1; E.Cs2; E.Cs2_f; E.Cs2_p; E.Cs2_pf ]
    ~cell:(fun alg (_, n) -> first_n alg (Workloads.er ~n ~avg_degree:10.) ~s:2)

let main_three = [ E.Cs2_p; E.Cs2_pf; E.Poly_delay ]

let fig9b () =
  sweep ~title:"Fig 9b: varying nodes, ER graphs, s=2, first 100"
    ~columns:(List.map (fun n -> ("ER" ^ abbrev n, n)) Workloads.er_sizes_9b)
    ~algorithms:main_three
    ~cell:(fun alg (_, n) -> first_n alg (Workloads.er ~n ~avg_degree:10.) ~s:2)

let fig9c () =
  sweep ~title:"Fig 9c: varying nodes, SF graphs, s=2, first 100 (paper: log scale)"
    ~columns:(List.map (fun n -> ("SF" ^ abbrev n, n)) Workloads.sf_sizes_9c)
    ~algorithms:main_three
    ~cell:(fun alg (_, n) -> first_n alg (Workloads.sf ~n ~avg_degree:10.) ~s:2)

let fig9d () =
  sweep
    ~title:
      (Printf.sprintf "Fig 9d: varying edge density, ER n=%s, s=2, first 100"
         (abbrev Workloads.n_9d))
    ~columns:(List.map (fun d -> (Printf.sprintf "ER%gD" d, d)) Workloads.densities_er)
    ~algorithms:main_three
    ~cell:(fun alg (_, d) ->
      first_n alg (Workloads.er ~n:Workloads.n_9d ~avg_degree:d) ~s:2)

let fig9e () =
  sweep
    ~title:
      (Printf.sprintf "Fig 9e: varying s, ER n=%s deg 10, first 100"
         (abbrev Workloads.n_9e))
    ~columns:(List.map (fun s -> (Printf.sprintf "s=%d" s, s)) [ 1; 2; 3 ])
    ~algorithms:main_three
    ~cell:(fun alg (_, s) -> first_n alg (Workloads.er ~n:Workloads.n_9e ~avg_degree:10.) ~s)

let fig9g () =
  sweep
    ~title:
      (Printf.sprintf "Fig 9g: varying edge density, SF n=%s, s=2, first 100"
         (abbrev Workloads.n_sf))
    ~columns:(List.map (fun d -> (Printf.sprintf "SF%gD" d, d)) Workloads.densities_sf)
    ~algorithms:main_three
    ~cell:(fun alg (_, d) ->
      first_n alg (Workloads.sf ~n:Workloads.n_sf ~avg_degree:d) ~s:2)

let fig9h () =
  sweep
    ~title:
      (Printf.sprintf "Fig 9h: varying s, SF n=%s deg 10, first 100 (paper: log scale)"
         (abbrev Workloads.n_sf))
    ~columns:(List.map (fun s -> (Printf.sprintf "s=%d" s, s)) [ 1; 2; 3 ])
    ~algorithms:main_three
    ~cell:(fun alg (_, s) -> first_n alg (Workloads.sf ~n:Workloads.n_sf ~avg_degree:10.) ~s)

let fig9i () =
  sweep ~title:"Fig 9i: real-data proxies, s=2, first 100"
    ~columns:(List.map (fun d -> (d.Workloads.name, d)) (Workloads.datasets ()))
    ~algorithms:main_three
    ~cell:(fun alg (_, d) -> first_n alg (d.Workloads.proxy ()) ~s:2)

(* Fig 9f: enumerate ALL results; report the delay of each tenth of the
   output (the paper reports time between every 10K results on a graph
   with 112,134 of them). *)
let fig9f () =
  let g = Workloads.er ~n:Workloads.n_9f ~avg_degree:10. in
  (* count the output within budget using the fastest variant *)
  let total = ref 0 in
  let counted =
    Harness.timed (fun budget ->
        let (_ : E.run_report) = E.run ~budget E.Cs2_p g ~s:2 (fun _ -> incr total) in
        Budget.poll budget)
  in
  match counted with
  | Harness.Timeout ->
      Printf.printf
        "\n== Fig 9f: skipped (could not count all results within budget; got %d) ==\n"
        !total
  | _ ->
      let total = !total in
      let step = max 1 (total / 10) in
      let checkpoints = List.init 10 (fun i -> min total ((i + 1) * step)) in
      let row alg =
        let deltas = Array.make 10 Harness.Timeout in
        let t0 = Unix.gettimeofday () in
        let last = ref t0 in
        let seen = ref 0 in
        let bucket = ref 0 in
        (* unbudgeted, so results stream as found; every one passes
           this sink, which checks the deadline *)
        ignore
          (Harness.timed (fun budget ->
               let (_ : E.run_report) =
                 E.run alg g ~s:2 (fun _ ->
                   if not (Budget.poll budget) then raise Harness.Out_of_budget;
                   incr seen;
                   if !bucket < 10 && !seen = List.nth checkpoints !bucket then begin
                     let t = Unix.gettimeofday () in
                     deltas.(!bucket) <- Harness.Seconds (t -. !last);
                     last := t;
                     incr bucket
                   end)
               in
               Budget.poll budget));
        (E.name alg, Array.to_list deltas)
      in
      Harness.print_table
        ~title:
          (Printf.sprintf
             "Fig 9f: delay per tenth of all %d results, ER n=%s deg 10, s=2" total
             (abbrev Workloads.n_9f))
        ~columns:(List.map (fun c -> string_of_int c) checkpoints)
        ~rows:(List.map row [ E.Cs2_p; E.Cs2_pf; E.Poly_delay ])

(* ---------- Figure 10: large results ---------- *)

let fig10_rows g ~s ks =
  let variant (alg, optimized) =
    let label = E.name alg ^ if optimized then " opt" else " plain" in
    ( label,
      List.map (fun k -> first_n ~min_size:k ~optimized alg g ~s) ks )
  in
  List.map variant
    [ (E.Cs2_p, true); (E.Cs2_pf, true); (E.Poly_delay, true);
      (E.Cs2_p, false); (E.Cs2_pf, false); (E.Poly_delay, false) ]

let fig10a () =
  let g = Workloads.er ~n:Workloads.n_9d ~avg_degree:10. in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Fig 10a: 100 results of size >= k, ER n=%s deg 10, s=2 (opt vs plain)"
         (abbrev Workloads.n_9d))
    ~columns:(List.map (fun k -> Printf.sprintf "k=%d" k) Workloads.ks_er)
    ~rows:(fig10_rows g ~s:2 Workloads.ks_er)

let fig10b () =
  let g = Workloads.sf ~n:Workloads.n_sf ~avg_degree:10. in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Fig 10b: 100 results of size >= k, SF n=%s deg 10, s=2 (opt vs plain)"
         (abbrev Workloads.n_sf))
    ~columns:(List.map (fun k -> Printf.sprintf "k=%d" k) Workloads.ks_sf)
    ~rows:(fig10_rows g ~s:2 Workloads.ks_sf)

let fig10c () =
  let k = Workloads.k_real in
  Harness.print_table
    ~title:
      (Printf.sprintf "Fig 10c: 100 results of size >= %d on real-data proxies, s=2" k)
    ~columns:(List.map (fun d -> d.Workloads.name) (Workloads.datasets ()))
    ~rows:
      (List.map
         (fun (alg, optimized) ->
           ( (E.name alg ^ if optimized then " opt" else " plain"),
             List.map
               (fun d -> first_n ~min_size:k ~optimized alg (d.Workloads.proxy ()) ~s:2)
               (Workloads.datasets ()) ))
         [ (E.Cs2_p, true); (E.Cs2_pf, true); (E.Poly_delay, true);
           (E.Cs2_p, false); (E.Cs2_pf, false); (E.Poly_delay, false) ])

(* ---------- Figure 11: sizes of sampled s-cliques ---------- *)

let fig11 () =
  let sample g ~s =
    let results = ref [] in
    let outcome =
      Harness.time_first_n ~quota:100 (fun budget yield ->
          results := E.first_n ~budget E.Cs2_p g ~s 100;
          List.iter yield !results)
    in
    let stats = Scliques_core.Stats.of_results !results in
    match outcome with
    | Harness.Timeout when stats.Scliques_core.Stats.count = 0 -> Harness.Timeout
    | Harness.Timeout ->
        (* partial sample: mark it *)
        Harness.Note
          (Printf.sprintf "%.1f/%d*" stats.Scliques_core.Stats.avg_size
             stats.Scliques_core.Stats.max_size)
    | _ ->
        Harness.Note
          (Printf.sprintf "%.1f/%d" stats.Scliques_core.Stats.avg_size
             stats.Scliques_core.Stats.max_size)
  in
  Harness.print_table
    ~title:"Fig 11: avg/max size of 100 sampled maximal connected s-cliques"
    ~columns:(List.map (fun d -> d.Workloads.name) (Workloads.datasets ()))
    ~rows:
      (List.map
         (fun s ->
           ( Printf.sprintf "s=%d (avg/max)" s,
             List.map (fun d -> sample (d.Workloads.proxy ()) ~s) (Workloads.datasets ())
           ))
         [ 1; 2; 3 ])

(* ---------- ablations (DESIGN.md §5) ---------- *)

let abl_cache () =
  let g = Workloads.er ~n:Workloads.n_9d ~avg_degree:10. in
  let row capacity =
    let label =
      if capacity = 0 then "no cache" else Printf.sprintf "cache %d" capacity
    in
    let nh = ref None in
    let outcome =
      Harness.time_first_n ~quota:1000 (fun budget yield ->
          let n = Nh.create ~cache_capacity:capacity ~s:2 g in
          nh := Some n;
          E.run ~nh:n ~budget E.Cs2_p g ~s:2 yield)
    in
    let hit_rate =
      match !nh with
      | None -> Harness.Note "-"
      | Some n ->
          let s = Nh.cache_stats n in
          let total = s.Scoll.Lri_cache.hits + s.Scoll.Lri_cache.misses in
          if total = 0 then Harness.Note "-"
          else
            Harness.Note
              (Printf.sprintf "%.0f%%"
                 (100. *. float_of_int s.Scoll.Lri_cache.hits /. float_of_int total))
    in
    (label, [ outcome; hit_rate ])
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ablation: N^s cache (CSCliques2P, first 1000, ER n=%s deg 10, s=2)"
         (abbrev Workloads.n_9d))
    ~columns:[ "time"; "hit rate" ]
    ~rows:(List.map row [ 0; 256; 65536 ])

let abl_index () =
  let g = Workloads.er ~n:Workloads.n_index ~avg_degree:10. in
  let row (label, index_mode) =
    let stats = ref None in
    let outcome =
      Harness.timed (fun budget ->
          let st, (_ : Pd.frontier) =
            Pd.run ~index_mode ~should_continue:(Budget.checker budget) (Nh.create ~s:2 g)
              (fun _ -> ())
          in
          stats := Some st;
          Budget.poll budget)
    in
    let extras =
      match !stats with
      | Some s ->
          [ Harness.Note (string_of_int s.Pd.generated);
            Harness.Note (string_of_int s.Pd.index_height) ]
      | None -> [ Harness.Note "-"; Harness.Note "-" ]
    in
    (label, outcome :: extras)
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "Ablation: PolyDelayEnum index structure (all results, ER n=%s)"
         (abbrev Workloads.n_index))
    ~columns:[ "time"; "generated"; "height" ]
    ~rows:
      (List.map row
         [ ("B-tree (paper)", Pd.Btree); ("hashtable", Pd.Hashtable) ])

let abl_pivot () =
  (* full enumeration: the pivot rule's value is the recursion-tree size it
     saves, which first-100 runs barely exercise *)
  let n = if Harness.fast then 300 else 1000 in
  let cell rule g =
    Harness.timed (fun budget ->
        (* the ascending root tasks [E.run] runs, on a runner with the
           rule under test *)
        let nh = Nh.create ~s:2 g in
        let rn =
          Cs2.make_runner
            ~rule:(Cs2.Cs2 { pivot = Some rule; feasibility = false })
            ~should_continue:(Budget.checker budget) nh (fun _ -> ())
        in
        let v = ref 0 in
        while !v < G.n g && Budget.poll budget do
          Cs2.run_task rn (Cs2.root_task nh !v);
          incr v
        done;
        Budget.poll budget)
  in
  Harness.print_table
    ~title:(Printf.sprintf "Ablation: pivot selection rule (ALL results, n=%d, s=2)" n)
    ~columns:[ "ER"; "SF" ]
    ~rows:
      (List.map
         (fun (label, rule) ->
           ( label,
             [ cell rule (Workloads.er ~n ~avg_degree:10.);
               cell rule (Workloads.sf ~n ~avg_degree:10.) ] ))
         [ ("min |P - N^s(u)| (paper)", Cs2.Min_uncovered);
           ("first candidate", Cs2.First_candidate) ])

let abl_queue () =
  let g = Workloads.sf ~n:Workloads.n_sf ~avg_degree:10. in
  let ks = [ 10; 20; 30 ] in
  let cell queue_mode k =
    Harness.time_first_n ~quota (fun budget yield ->
        Pd.run ~queue_mode ~min_size:k ~should_continue:(Budget.checker budget)
          (Nh.create ~s:2 g) yield)
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ablation: PolyDelayEnum queue for large results (SF n=%s, 100 of size>=k)"
         (abbrev Workloads.n_sf))
    ~columns:(List.map (fun k -> Printf.sprintf "k=%d" k) ks)
    ~rows:
      (List.map
         (fun (label, queue_mode) -> (label, List.map (cell queue_mode) ks))
         [ ("FIFO (Fig 4)", Pd.Fifo); ("largest-first (§6)", Pd.Largest_first) ])

let abl_degeneracy () =
  (* footnote 1: degeneracy-ordered root branching vs the plain ascending
     root, full enumeration (the ordering's value is bounded root P sets;
     its cost is building G^s first) *)
  let n = if Harness.fast then 300 else 1000 in
  let cell run g =
    Harness.timed (fun budget ->
        run budget g;
        Budget.poll budget)
  in
  let ascending budget g =
    let (_ : E.run_report) = E.run ~budget E.Cs2_p g ~s:2 (fun _ -> ()) in
    ()
  in
  let degeneracy budget g =
    Cs2.run_degeneracy
      (Cs2.make_runner
         ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = false })
         ~should_continue:(Budget.checker budget) (Nh.create ~s:2 g) (fun _ -> ()))
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "Ablation: root ordering for CSCliques2P (ALL results, n=%d, s=2)" n)
    ~columns:[ "ER"; "SF" ]
    ~rows:
      (List.map
         (fun (label, run) ->
           ( label,
             [ cell run (Workloads.er ~n ~avg_degree:10.);
               cell run (Workloads.sf ~n ~avg_degree:10.) ] ))
         [ ("ascending ids (Fig 7)", ascending);
           ("G^s degeneracy (footnote 1)", degeneracy) ])

let delays () =
  (* Theorem 4.2 made visible: per-result delay quantiles over the first
     1000 results, via the Scliques_obs recorder. PD's guarantee is a
     polynomial worst-case delay; the BK adaptations have none (but behave
     well in practice). Besides the table, the run leaves a machine-
     readable BENCH_delay.json (full snapshots: delay summary + cache and
     search counters per algorithm) so the perf trajectory across commits
     is diffable. *)
  let quota = 1000 in
  let g = Workloads.er ~n:Workloads.n_9f ~avg_degree:10. in
  let snapshots = ref [] in
  let row alg =
    let obs = Scliques_obs.Obs.create () in
    let outcome = first_n ~quota ~obs alg g ~s:2 in
    let s = Scliques_obs.Recorder.summary (Scliques_obs.Obs.delay obs) in
    snapshots := (E.name alg, Scliques_obs.Obs.snapshot_json obs) :: !snapshots;
    ( E.name alg,
      [ outcome;
        Harness.Note (Printf.sprintf "%.4f" s.Scliques_obs.Recorder.first);
        Harness.Note (Printf.sprintf "%.4f" s.Scliques_obs.Recorder.max);
        Harness.Note (Printf.sprintf "%.5f" s.Scliques_obs.Recorder.mean);
        Harness.Note (Printf.sprintf "%.5f" s.Scliques_obs.Recorder.p50);
        Harness.Note (Printf.sprintf "%.5f" s.Scliques_obs.Recorder.p95);
        Harness.Note (Printf.sprintf "%.5f" s.Scliques_obs.Recorder.p99) ] )
  in
  let rows = List.map row [ E.Cs2_p; E.Cs2_pf; E.Cs1; E.Poly_delay ] in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Delay profile: first 1000 results on ER n=%s deg 10, s=2 (seconds)"
         (abbrev Workloads.n_9f))
    ~columns:[ "total"; "first"; "max gap"; "mean"; "p50"; "p95"; "p99" ]
    ~rows;
  Harness.write_json ~path:"BENCH_delay.json"
    (Scliques_obs.Sink.Obj
       [
         ("experiment", Scliques_obs.Sink.String "delays");
         ( "graph",
           Scliques_obs.Sink.String
             (Printf.sprintf "er n=%d avg_degree=10 seed=%d" Workloads.n_9f Harness.seed)
         );
         ("s", Scliques_obs.Sink.Int 2);
         ("quota", Scliques_obs.Sink.Int quota);
         ("algorithms", Scliques_obs.Sink.Obj (List.rev !snapshots));
       ])

let abl_generic () =
  (* abstraction penalty: the generic connected-hereditary engine vs the
     specialized PolyDelayEnum on the same s-clique instance *)
  let n = if Harness.fast then 200 else 500 in
  let g = Workloads.er ~n ~avg_degree:8. in
  let enumerate alg budget yield =
    let (_ : E.run_report) = E.run ~budget alg g ~s:2 yield in
    ()
  in
  let row (label, run) =
    let count = ref 0 in
    let outcome =
      Harness.timed (fun budget ->
          run budget (fun _ -> incr count);
          Budget.poll budget)
    in
    (label, [ outcome; Harness.Note (string_of_int !count) ])
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Ablation: generic hereditary engine vs specialized PD (ALL results, ER n=%d, \
          s=2)"
         n)
    ~columns:[ "time"; "results" ]
    ~rows:
      [
        row ("PolyDelayEnum (specialized)", enumerate E.Poly_delay);
        row
          ( "Hereditary engine (generic)",
            fun budget yield ->
              Scliques_core.Hereditary.iter ~should_continue:(Budget.checker budget) g
                (Scliques_core.Hereditary.s_clique ~s:2)
                yield );
        row ("CSCliques2P (for scale)", enumerate E.Cs2_p);
      ]

(* One observed work-stealing run over every root: the canonical
   results, a reader for the scheduler's [par.*] counters, and the tasks
   each worker executed. *)
let par_run ?split_min_subtree ~workers g =
  let obs = Scliques_obs.Obs.create () in
  let results =
    Scliques_core.Parallel.enumerate ?split_min_subtree ~workers ~obs g ~s:2
  in
  let counter name =
    Option.value (Scliques_obs.Counters.find (Scliques_obs.Obs.counters obs) name)
      ~default:0
  in
  let tasks =
    Array.init workers (fun i -> counter (Printf.sprintf "par.worker%d.tasks" i))
  in
  (results, counter, tasks)

let parallel_balance () =
  (* the paper's §8 future work: distribute the enumeration. The task
     decomposition is exact; the open question is balance, so we report
     per-worker load for ER (uniform) vs SF (hub-skewed), with the
     work-stealing columns showing how much the scheduler had to move.
     One-core container: wall-clock speedup is not the point here. *)
  let n = if Harness.fast then 300 else 1000 in
  let row (label, g) =
    let results, counter, loads = par_run ~workers:4 g in
    let max_load = Array.fold_left Int.max 0 loads in
    let avg_load =
      float_of_int (Array.fold_left ( + ) 0 loads) /. float_of_int (Array.length loads)
    in
    ( label,
      [ Harness.Note (string_of_int (List.length results));
        Harness.Note
          (String.concat "/" (Array.to_list (Array.map string_of_int loads)));
        Harness.Note
          (Printf.sprintf "%.2f" (float_of_int max_load /. Float.max 1. avg_load));
        Harness.Note (string_of_int (counter "par.steals"));
        Harness.Note (string_of_int (counter "par.splits")) ] )
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Future work (§8): 4-worker work-stealing decomposition, n=%d, s=2 — balance" n)
    ~columns:[ "results"; "tasks/worker"; "task skew"; "steals"; "splits" ]
    ~rows:
      [ row ("ER", Workloads.er ~n ~avg_degree:10.);
        row ("SF", Workloads.sf ~n ~avg_degree:10.) ]

let scaling () =
  (* the tentpole measurement: workers × graph family, full enumeration,
     against the sequential CsCliques2P baseline. Each cell also records
     scheduler health (task skew, steals, splits), and every (family,
     workers) measurement appends one JSON line to BENCH_parallel.json so
     successive commits leave a comparable trail.

     Caveat recorded in the JSON too: on a container with a single
     hardware core (cores=1 below), OCaml domains time-share it and
     wall-clock speedup > 1 is physically impossible — there the
     interesting signal is that the speedup stays near 1 (scheduling
     overhead is small) while steals/splits show the balancer working. *)
  (* SF full enumeration blows up fast with n (n=300 already yields ~400K
     results), so the FAST/smoke tier runs much smaller instances to keep
     the whole sweep within a CI minute *)
  let n = if Harness.fast then 120 else 1000 in
  let worker_counts = if Harness.fast then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  let families =
    [ ("ER", Workloads.er ~n ~avg_degree:10.); ("SF", Workloads.sf ~n ~avg_degree:10.) ]
  in
  let rows =
    List.concat_map
      (fun (family, g) ->
        (* sequential baseline: the same engine the workers run, observed
           like them, no scheduler; its answer, sorted as Parallel sorts,
           is what every worker count must return *)
        let t0 = Harness.now () in
        let baseline = ref [] in
        let obs = Scliques_obs.Obs.create () in
        let (_ : E.run_report) =
          E.run ~obs E.Cs2_p g ~s:2 (fun c -> baseline := c :: !baseline)
        in
        let t_seq = Harness.now () -. t0 in
        let expected = List.sort NS.compare !baseline in
        (* over-splitting check: the minimum-subtree threshold must cut
           the split count without changing the canonical output *)
        let workers = List.fold_left Int.max 1 worker_counts in
        let res_def, st_def, _ = par_run ~workers g in
        let res_all, st_all, _ = par_run ~workers ~split_min_subtree:0 g in
        let splits_def = st_def "par.splits" and splits_all = st_all "par.splits" in
        if not (List.equal NS.equal res_def res_all) then
          failwith
            (family ^ ": split threshold changed the canonical output");
        if splits_def > splits_all then
          Printf.printf
            "[warn] %s: threshold did not reduce splits (%d > %d)\n%!" family
            splits_def splits_all;
        Harness.append_json ~path:"BENCH_parallel.json"
          (Scliques_obs.Sink.Obj
             [
               ("experiment", Scliques_obs.Sink.String "split-threshold");
               ("family", Scliques_obs.Sink.String family);
               ("n", Scliques_obs.Sink.Int n);
               ("s", Scliques_obs.Sink.Int 2);
               ("seed", Scliques_obs.Sink.Int Harness.seed);
               ("workers", Scliques_obs.Sink.Int workers);
               ("results", Scliques_obs.Sink.Int (List.length res_def));
               ("splits_default", Scliques_obs.Sink.Int splits_def);
               ("splits_unthresholded", Scliques_obs.Sink.Int splits_all);
               ( "split_ratio",
                 Scliques_obs.Sink.Float
                   (float_of_int splits_def /. Float.max 1. (float_of_int splits_all)) );
             ]);
        List.map
          (fun workers ->
            let t0 = Harness.now () in
            let results, counter, tasks = par_run ~workers g in
            let wall = Harness.now () -. t0 in
            if not (List.equal NS.equal expected results) then
              failwith
                (Printf.sprintf "%s: %d workers returned %d results, sequential CS2P %d"
                   family workers (List.length results) (List.length expected));
            let speedup = t_seq /. Float.max 1e-9 wall in
            let max_tasks = Array.fold_left Int.max 0 tasks in
            let avg_tasks =
              float_of_int (Array.fold_left ( + ) 0 tasks)
              /. float_of_int (Array.length tasks)
            in
            let skew = float_of_int max_tasks /. Float.max 1. avg_tasks in
            Harness.append_json ~path:"BENCH_parallel.json"
              (Scliques_obs.Sink.Obj
                 [
                   ("experiment", Scliques_obs.Sink.String "scaling");
                   ("family", Scliques_obs.Sink.String family);
                   ("n", Scliques_obs.Sink.Int n);
                   ("s", Scliques_obs.Sink.Int 2);
                   ("seed", Scliques_obs.Sink.Int Harness.seed);
                   ("cores", Scliques_obs.Sink.Int cores);
                   ("workers", Scliques_obs.Sink.Int workers);
                   ("results", Scliques_obs.Sink.Int (List.length results));
                   ("seq_seconds", Scliques_obs.Sink.Float t_seq);
                   ("wall_seconds", Scliques_obs.Sink.Float wall);
                   ("speedup", Scliques_obs.Sink.Float speedup);
                   ("task_skew", Scliques_obs.Sink.Float skew);
                   ("steals", Scliques_obs.Sink.Int (counter "par.steals"));
                   ("splits", Scliques_obs.Sink.Int (counter "par.splits"));
                 ]);
            ( Printf.sprintf "%s w=%d" family workers,
              [
                Harness.Seconds wall;
                Harness.Note (Printf.sprintf "%.2fx" speedup);
                Harness.Note (Printf.sprintf "%.2f" skew);
                Harness.Note (string_of_int (counter "par.steals"));
                Harness.Note (string_of_int (counter "par.splits"));
              ] ))
          worker_counts)
      families
  in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Scaling: work-stealing enumeration, ALL results, n=%d, s=2 (%d cores; \
          sequential CS2P is the speedup baseline)"
         n cores)
    ~columns:[ "wall"; "speedup"; "task skew"; "steals"; "splits" ]
    ~rows

let graph_load () =
  (* The CSR/snapshot tentpole, measured: loading the largest ER instance
     from a binary snapshot vs parsing its edge-list text (target: >= 5x),
     and a BFS sweep over the CSR-backed graph vs the same BFS on a plain
     array-of-arrays adjacency (the pre-CSR storage; target: no slower).
     Numbers land in BENCH_load.json for the cross-commit trail. *)
  let n = Workloads.n_load in
  let g = Workloads.er ~n ~avg_degree:10. in
  let reps = if Harness.fast then 3 else 5 in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Harness.now () in
      ignore (Sys.opaque_identity (f ()));
      best := Float.min !best (Harness.now () -. t0)
    done;
    !best
  in
  let text_path = Filename.temp_file "scliques-bench" ".edges" in
  let snap_path = Filename.temp_file "scliques-bench" ".sgr" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove text_path;
      Sys.remove snap_path)
    (fun () ->
      Sgraph.Edge_list_io.save g text_path;
      Sgraph.Snapshot.save g snap_path;
      (* both paths must reproduce the graph before their times count *)
      assert (G.equal g (Sgraph.Edge_list_io.load text_path));
      assert (G.equal g (Sgraph.Snapshot.load snap_path));
      let t_text = best_of (fun () -> Sgraph.Edge_list_io.load text_path) in
      let t_snap = best_of (fun () -> Sgraph.Snapshot.load snap_path) in
      let speedup = t_text /. Float.max 1e-9 t_snap in
      (* BFS sweep: full distances from spread-out sources; the boxed
         baseline runs the identical algorithm over int array array *)
      let sources =
        let k = Int.min 48 (G.n g) in
        List.init k (fun i -> i * G.n g / k)
      in
      let sweep_csr () =
        List.fold_left
          (fun acc src -> acc + Array.fold_left ( + ) 0 (Sgraph.Bfs.distances g src))
          0 sources
      in
      let rows = Sgraph.Csr.to_rows (G.csr g) in
      let distances_boxed (adj : int array array) src =
        let n = Array.length adj in
        let dist = Array.make n (-1) in
        let queue = Scoll.Fifo_queue.create () in
        dist.(src) <- 0;
        Scoll.Fifo_queue.push queue src;
        while not (Scoll.Fifo_queue.is_empty queue) do
          let v = Scoll.Fifo_queue.pop queue in
          Array.iter
            (fun u ->
              if dist.(u) < 0 then begin
                dist.(u) <- dist.(v) + 1;
                Scoll.Fifo_queue.push queue u
              end)
            adj.(v)
        done;
        dist
      in
      let sweep_boxed () =
        List.fold_left
          (fun acc src -> acc + Array.fold_left ( + ) 0 (distances_boxed rows src))
          0 sources
      in
      assert (sweep_csr () = sweep_boxed ());
      let t_csr = best_of sweep_csr in
      let t_boxed = best_of sweep_boxed in
      let bfs_ratio = t_csr /. Float.max 1e-9 t_boxed in
      Harness.print_table
        ~title:
          (Printf.sprintf
             "Graph load: ER n=%s deg 10 (m=%d), best of %d; BFS sweep from %d \
              sources"
             (abbrev n) (G.m g) reps (List.length sources))
        ~columns:[ "seconds"; "vs text"; "vs boxed" ]
        ~rows:
          [
            ("text parse", [ Harness.Seconds t_text; Harness.Note "1.00x"; Harness.Note "-" ]);
            ( "snapshot load",
              [ Harness.Seconds t_snap;
                Harness.Note (Printf.sprintf "%.2fx" speedup);
                Harness.Note "-" ] );
            ("bfs boxed rows", [ Harness.Seconds t_boxed; Harness.Note "-"; Harness.Note "1.00x" ]);
            ( "bfs csr",
              [ Harness.Seconds t_csr;
                Harness.Note "-";
                Harness.Note (Printf.sprintf "%.2fx" bfs_ratio) ] );
          ];
      if speedup < 5. then
        Printf.printf "[warn] snapshot load only %.2fx faster than text parse\n%!" speedup;
      if bfs_ratio > 1.10 then
        Printf.printf "[warn] CSR BFS sweep %.2fx the boxed-rows baseline\n%!" bfs_ratio;
      Harness.write_json ~path:"BENCH_load.json"
        (Scliques_obs.Sink.Obj
           [
             ("experiment", Scliques_obs.Sink.String "load");
             ( "graph",
               Scliques_obs.Sink.String
                 (Printf.sprintf "er n=%d avg_degree=10 seed=%d" n Harness.seed) );
             ("edges", Scliques_obs.Sink.Int (G.m g));
             ("reps", Scliques_obs.Sink.Int reps);
             ("text_parse_seconds", Scliques_obs.Sink.Float t_text);
             ("snapshot_load_seconds", Scliques_obs.Sink.Float t_snap);
             ("snapshot_speedup", Scliques_obs.Sink.Float speedup);
             ("bfs_sources", Scliques_obs.Sink.Int (List.length sources));
             ("bfs_boxed_seconds", Scliques_obs.Sink.Float t_boxed);
             ("bfs_csr_seconds", Scliques_obs.Sink.Float t_csr);
             ("bfs_csr_over_boxed", Scliques_obs.Sink.Float bfs_ratio);
           ]))

let churn () =
  (* The refresh tentpole, measured: after a single-edge edit of the
     suite's largest ER instance, patching the prior answer with
     Enumerate.refresh vs recomputing it from scratch — and the
     fingerprint gate vs the pre-fingerprint baseline
     ([~fingerprints:false], every affected root re-runs). The prior
     answer is also streamed to disk and indexed (SCLQIDX1), and the
     refreshed roots are spliced back by byte extent, so the file-level
     patch cost is measured too. Every refreshed answer is asserted
     equal to the recomputation before its time counts. Numbers land in
     BENCH_churn.json. *)
  let module RI = Scliques_core.Result_io.Index in
  let module RSt = Scliques_core.Result_io.Stream in
  let n = Workloads.n_load in
  let s = 2 in
  let g0 = Workloads.er ~n ~avg_degree:10. in
  let time f =
    let t0 = Harness.now () in
    let r = f () in
    (r, Harness.now () -. t0)
  in
  let prior, t_prior = time (fun () -> E.sorted_results E.Cs2_pf g0 ~s) in
  (* persistent sidecar: stream the prior answer once and index it *)
  let stream_path = Filename.temp_file "bench_churn" ".results" in
  let out_path = stream_path ^ ".spliced" in
  let idx, t_index =
    time (fun () ->
        let w = RSt.open_writer stream_path in
        List.iter (RSt.write_set w) prior;
        RSt.close w;
        let idx =
          RI.build ~s ~n
            ~fingerprint:(Scliques_core.Neighborhood.root_fingerprint ~s g0)
            stream_path
        in
        RI.save idx (RI.path_for stream_path);
        idx)
  in
  (* one deleted edge and one inserted non-edge, both incident to the
     first node that has a neighbor at all *)
  let u = ref 0 in
  while G.degree g0 !u = 0 do incr u done;
  let u = !u in
  let del_v = (G.neighbors g0 u).(0) in
  let ins_v =
    let v = ref 0 in
    while !v = u || G.mem_edge g0 u !v do incr v done;
    !v
  in
  let scenarios =
    [
      ("delete", Sgraph.Overlay.Delete (u, del_v));
      ("insert", Sgraph.Overlay.Insert (u, ins_v));
    ]
  in
  let measured =
    List.map
      (fun (op, edit) ->
        let edits = [ edit ] in
        let g1 = Sgraph.Diff.apply g0 edits in
        let touched = Sgraph.Overlay.touched edits in
        let full, t_full = time (fun () -> E.sorted_results E.Cs2_pf g1 ~s) in
        (* pre-fingerprint baseline: the whole affected set re-runs *)
        let base, t_base =
          time (fun () ->
              E.refresh ~engine:(`Seq E.Cs2_pf) ~fingerprints:false ~before:g0
                ~after:g1 ~touched ~s ~prior ())
        in
        (* the gate, fed from the stored SCLQIDX1 fingerprints *)
        let delta, t_inc =
          time (fun () ->
              E.refresh ~engine:(`Seq E.Cs2_pf)
                ~prior_fingerprint:(fun r ->
                  Some idx.RI.entries.(r).RI.fingerprint)
                ~before:g0 ~after:g1 ~touched ~s ~prior ())
        in
        if not (List.equal NS.equal base.E.results full) then
          failwith (op ^ ": ungated refresh diverged from full recompute");
        if not (List.equal NS.equal delta.E.results full) then
          failwith (op ^ ": fingerprinted refresh diverged from full recompute");
        (* the re-run set must sit strictly inside the radius-(2s-1)
           cover around the endpoints (the coarse bound refresh starts
           from) — fingerprints are what shrink it *)
        let a, b = Sgraph.Overlay.edit_endpoints edit in
        let cover =
          NS.cardinal
            (NS.union
               (NS.union
                  (Sgraph.Bfs.ball g0 a ~radius:((2 * s) - 1))
                  (Sgraph.Bfs.ball g0 b ~radius:((2 * s) - 1)))
               (NS.union
                  (Sgraph.Bfs.ball g1 a ~radius:((2 * s) - 1))
                  (Sgraph.Bfs.ball g1 b ~radius:((2 * s) - 1))))
        in
        if delta.E.roots_rerun >= cover then
          Printf.printf
            "[warn] %s: %d roots re-run, not below the radius-(2s-1) cover \
             of %d\n%!"
            op delta.E.roots_rerun cover;
        let affected = delta.E.roots_rerun + delta.E.roots_skipped in
        let skip_rate =
          float_of_int delta.E.roots_skipped /. Float.max 1. (float_of_int affected)
        in
        if skip_rate < 0.5 then
          Printf.printf
            "[warn] %s: fingerprint skip rate %.0f%% below 50%% (%d of %d \
             affected roots re-ran)\n%!"
            op (100. *. skip_rate) delta.E.roots_rerun affected;
        (* file-level patch: splice the re-run roots into the stream *)
        let rerun = Hashtbl.create 64 in
        List.iter
          (fun (root, fp) ->
            if idx.RI.entries.(root).RI.fingerprint <> fp then
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
        let (_, sstats), t_splice =
          time (fun () ->
              RI.splice ~old_stream:stream_path ~index:idx ~patched
                ~out:out_path)
        in
        (* the spliced file, read back: a clean stream holding the full
           answer, and a sidecar equal to one built from scratch — every
           digest the splice copied through still holds on g1, since the
           cover radius 2s-1 is at least rho_s *)
        let spliced, tail = RSt.read_results out_path in
        if not (tail = `Clean && List.equal NS.equal (List.sort NS.compare spliced) full)
        then failwith (op ^ ": spliced stream differs from full recompute");
        let rebuilt =
          RI.build ~s ~n
            ~fingerprint:(Scliques_core.Neighborhood.root_fingerprint ~s g1)
            out_path
        in
        let entry_equal (a : RI.entry) (b : RI.entry) =
          a.fingerprint = b.fingerprint && a.offset = b.offset && a.extent = b.extent
          && a.count = b.count
        in
        let saved = RI.load (RI.path_for out_path) in
        if
          not
            (saved.RI.stream_len = rebuilt.RI.stream_len
            && Array.length saved.RI.entries = Array.length rebuilt.RI.entries
            && Array.for_all2 entry_equal saved.RI.entries rebuilt.RI.entries)
        then failwith (op ^ ": spliced sidecar differs from one built over the stream");
        let speedup = t_full /. Float.max 1e-9 t_inc in
        if speedup < 1. then
          Printf.printf
            "[warn] %s: incremental refresh %.3fs not faster than full \
             recompute %.3fs\n%!"
            op t_inc t_full;
        (op, edit, t_full, t_base, t_inc, speedup, delta, cover, skip_rate,
         t_splice, sstats))
      scenarios
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ stream_path; RI.path_for stream_path; out_path; RI.path_for out_path ];
  Harness.print_table
    ~title:
      (Printf.sprintf
         "Churn: ER n=%s deg 10 (m=%d), s=%d, single-edge edit; prior answer \
          %d results in %.3fs, indexed in %.3fs"
         (abbrev n) (G.m g0) s (List.length prior) t_prior t_index)
    ~columns:
      [ "full"; "no-fp refresh"; "fp refresh"; "speedup"; "rerun/skip"; "splice" ]
    ~rows:
      (List.map
         (fun (op, _, t_full, t_base, t_inc, speedup, delta, _, _, t_splice,
               sstats) ->
           ( op,
             [
               Harness.Seconds t_full;
               Harness.Seconds t_base;
               Harness.Seconds t_inc;
               Harness.Note (Printf.sprintf "%.1fx" speedup);
               Harness.Note
                 (Printf.sprintf "%d/%d" delta.E.roots_rerun
                    delta.E.roots_skipped);
               Harness.Note
                 (Printf.sprintf "%.3fs %dB+%dB" t_splice
                    sstats.RI.fresh_bytes sstats.RI.copied_bytes);
             ] ))
         measured);
  Harness.write_json ~path:"BENCH_churn.json"
    (Scliques_obs.Sink.Obj
       [
         ("experiment", Scliques_obs.Sink.String "churn");
         ( "graph",
           Scliques_obs.Sink.String
             (Printf.sprintf "er n=%d avg_degree=10 seed=%d" n Harness.seed) );
         ("edges", Scliques_obs.Sink.Int (G.m g0));
         ("s", Scliques_obs.Sink.Int s);
         ("prior_results", Scliques_obs.Sink.Int (List.length prior));
         ("prior_seconds", Scliques_obs.Sink.Float t_prior);
         ("index_seconds", Scliques_obs.Sink.Float t_index);
         ( "scenarios",
           Scliques_obs.Sink.Obj
             (List.map
                (fun (op, edit, t_full, t_base, t_inc, speedup, delta, cover,
                      skip_rate, t_splice, sstats) ->
                  let a, b = Sgraph.Overlay.edit_endpoints edit in
                  ( op,
                    Scliques_obs.Sink.Obj
                      [
                        ("edge", Scliques_obs.Sink.String (Printf.sprintf "%d-%d" a b));
                        ("full_seconds", Scliques_obs.Sink.Float t_full);
                        ("baseline_seconds", Scliques_obs.Sink.Float t_base);
                        ("incremental_seconds", Scliques_obs.Sink.Float t_inc);
                        ("speedup", Scliques_obs.Sink.Float speedup);
                        ( "speedup_vs_baseline",
                          Scliques_obs.Sink.Float
                            (t_base /. Float.max 1e-9 t_inc) );
                        ("roots_rerun", Scliques_obs.Sink.Int delta.E.roots_rerun);
                        ( "roots_skipped",
                          Scliques_obs.Sink.Int delta.E.roots_skipped );
                        ("skip_rate", Scliques_obs.Sink.Float skip_rate);
                        ("cover_2s1", Scliques_obs.Sink.Int cover);
                        ("splice_seconds", Scliques_obs.Sink.Float t_splice);
                        ( "splice_fresh_bytes",
                          Scliques_obs.Sink.Int sstats.RI.fresh_bytes );
                        ( "splice_copied_bytes",
                          Scliques_obs.Sink.Int sstats.RI.copied_bytes );
                        ( "results",
                          Scliques_obs.Sink.Int (List.length delta.E.results) );
                        ("added", Scliques_obs.Sink.Int (List.length delta.E.added));
                        ( "removed",
                          Scliques_obs.Sink.Int (List.length delta.E.removed) );
                      ] ))
                measured) );
       ])

(* ---------- daemon serving throughput ---------- *)

let serve () =
  (* An in-process daemon on a Unix socket, hammered by 1/4/8 client
     threads. Each client runs [queries] complete CS2-PF queries over
     its own connection; a query only counts when its [Done] says
     Complete and it streamed exactly the in-process result count, so
     the throughput number is for verified-correct serving. Numbers
     land in BENCH_daemon.json. *)
  let module Server = Scliques_daemon.Server in
  let module Client = Scliques_daemon.Client in
  let module P = Scliques_daemon.Protocol in
  let gadget_n = if Harness.fast then 5 else 9 in
  let g = Sgraph.Gen.exponential_gadget gadget_n in
  let s = 2 in
  let expected = List.length (E.sorted_results E.Cs2_pf g ~s) in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scliques-bench-%d.sock" (Unix.getpid ()))
  in
  (* more domains than cores is a slowdown, not concurrency *)
  let workers = min 8 (max 2 (Domain.recommended_domain_count ())) in
  let srv =
    Server.create ~workers ~max_queue:64 ~graphs:[ ("bench", g) ]
      (Server.Unix_socket sock)
  in
  let queries = if Harness.fast then 4 else 25 in
  let run_level clients =
    let bad = Atomic.make 0 in
    let t0 = Harness.now () in
    let threads =
      List.init clients (fun _ ->
          Thread.create
            (fun () ->
              let c = Client.connect (Server.Unix_socket sock) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  for i = 1 to queries do
                    let q =
                      {
                        P.q_id = i;
                        q_engine = P.Alg E.Cs2_pf;
                        q_graph = "bench";
                        q_s = s;
                        q_min_size = 0;
                        q_deadline_s = None;
                        q_max_results = None;
                        q_resume = None;
                      }
                    in
                    let n = ref 0 in
                    match Client.run_query ~on_result:(fun _ -> incr n) c q with
                    | Client.Finished
                        { P.d_outcome = Scliques_core.Budget.Complete; _ }
                      when !n = expected ->
                        ()
                    | _ -> Atomic.incr bad
                  done))
            ())
    in
    List.iter Thread.join threads;
    let dt = Harness.now () -. t0 in
    if Atomic.get bad > 0 then
      failwith (Printf.sprintf "serve: %d failed queries" (Atomic.get bad));
    (float_of_int (clients * queries) /. dt, dt)
  in
  let measured = List.map (fun c -> (c, run_level c)) [ 1; 4; 8 ] in
  Server.stop srv;
  Harness.print_table
    ~title:
      (Printf.sprintf
         "daemon throughput (gadget n=%d, %d results/query, s=%d, %d workers)"
         gadget_n expected s workers)
    ~columns:[ "queries/s"; "wall s" ]
    ~rows:
      (List.map
         (fun (clients, (qps, dt)) ->
           ( Printf.sprintf "%d client%s" clients (if clients = 1 then "" else "s"),
             [ Harness.Note (Printf.sprintf "%.1f" qps); Harness.Seconds dt ] ))
         measured);
  Harness.write_json ~path:"BENCH_daemon.json"
    (Scliques_obs.Sink.Obj
       [
         ("experiment", Scliques_obs.Sink.String "serve");
         ( "graph",
           Scliques_obs.Sink.String (Printf.sprintf "gadget n=%d" gadget_n) );
         ("s", Scliques_obs.Sink.Int s);
         ("results_per_query", Scliques_obs.Sink.Int expected);
         ("workers", Scliques_obs.Sink.Int workers);
         ("queries_per_client", Scliques_obs.Sink.Int queries);
         ( "levels",
           Scliques_obs.Sink.Obj
             (List.map
                (fun (clients, (qps, dt)) ->
                  ( string_of_int clients,
                    Scliques_obs.Sink.Obj
                      [
                        ("queries_per_sec", Scliques_obs.Sink.Float qps);
                        ("wall_seconds", Scliques_obs.Sink.Float dt);
                      ] ))
                measured) );
       ])

(* ---------- serving under churn ---------- *)

let serve_churn () =
  (* The live-mutation path, measured end to end: 4 client threads
     stream verified-complete queries while a mutator thread flips the
     same edit-script pair over the wire against a durable state dir —
     so every ack pays the journal fsync, and the compaction threshold
     is low enough that rebases happen mid-run. Epoch pinning makes
     correctness checkable under churn: every completed stream must
     equal one of the two reference answers, bit for bit. Numbers land
     in BENCH_daemon_churn.json. *)
  let module Server = Scliques_daemon.Server in
  let module Client = Scliques_daemon.Client in
  let module P = Scliques_daemon.Protocol in
  let module Stream = Scliques_core.Result_io.Stream in
  let gadget_n = if Harness.fast then 5 else 9 in
  let g0 = Sgraph.Gen.exponential_gadget gadget_n in
  let s = 2 in
  (* flip one existing edge and one chord, keeping n and m fixed so the
     forward and backward scripts alternate cleanly *)
  let u = ref 0 in
  while G.degree g0 !u = 0 do incr u done;
  let u = !u in
  let del_v = (G.neighbors g0 u).(0) in
  let ins_v =
    let v = ref 0 in
    while !v = u || G.mem_edge g0 u !v do incr v done;
    !v
  in
  let g1 =
    Sgraph.Diff.apply g0
      [ Sgraph.Overlay.Delete (u, del_v); Sgraph.Overlay.Insert (u, ins_v) ]
  in
  let script_between a b =
    Sgraph.Diff.to_string ~base_n:(G.n a) ~base_m:(G.m a) (Sgraph.Diff.between a b)
  in
  let fwd = script_between g0 g1 in
  let bwd = script_between g1 g0 in
  let sorted_stream g =
    List.sort String.compare
      (List.map Stream.encode_set (E.sorted_results E.Cs2_pf g ~s))
  in
  let ref0 = sorted_stream g0 in
  let ref1 = sorted_stream g1 in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scliques-bench-churn-%d.sock" (Unix.getpid ()))
  in
  let state_dir = Filename.temp_file "scliques-bench-state" "" in
  Sys.remove state_dir;
  Unix.mkdir state_dir 0o755;
  let workers = min 8 (max 2 (Domain.recommended_domain_count ())) in
  let srv =
    Server.create ~workers ~max_queue:64 ~compact_threshold:32 ~state_dir
      ~graphs:[ ("bench", g0) ]
      (Server.Unix_socket sock)
  in
  let queries = if Harness.fast then 4 else 25 in
  let clients = 4 in
  let bad = Atomic.make 0 in
  let stop = Atomic.make false in
  let latencies = ref [] in
  let mutator =
    Thread.create
      (fun () ->
        let c = Client.connect (Server.Unix_socket sock) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let i = ref 0 in
            let mutate_once script =
              let t0 = Harness.now () in
              match Client.mutate c ~id:(!i + 1) ~graph:"bench" ~script with
              | Client.Applied _ -> latencies := (Harness.now () -. t0) :: !latencies
              | _ -> Atomic.incr bad
            in
            while not (Atomic.get stop) do
              mutate_once (if !i land 1 = 0 then fwd else bwd);
              incr i;
              Thread.yield ()
            done;
            (* leave the graph back at g0 *)
            if !i land 1 = 1 then begin
              mutate_once bwd;
              incr i
            end))
      ()
  in
  let t0 = Harness.now () in
  let threads =
    List.init clients (fun _ ->
        Thread.create
          (fun () ->
            let c = Client.connect (Server.Unix_socket sock) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for i = 1 to queries do
                  let q =
                    {
                      P.q_id = i;
                      q_engine = P.Alg E.Cs2_pf;
                      q_graph = "bench";
                      q_s = s;
                      q_min_size = 0;
                      q_deadline_s = None;
                      q_max_results = None;
                      q_resume = None;
                    }
                  in
                  let acc = ref [] in
                  match
                    Client.run_query ~on_result:(fun r -> acc := r :: !acc) c q
                  with
                  | Client.Finished
                      { P.d_outcome = Scliques_core.Budget.Complete; _ } ->
                      let got = List.sort String.compare !acc in
                      if
                        not
                          (List.equal String.equal got ref0
                          || List.equal String.equal got ref1)
                      then Atomic.incr bad
                  | _ -> Atomic.incr bad
                done))
          ())
  in
  List.iter Thread.join threads;
  let dt = Harness.now () -. t0 in
  Atomic.set stop true;
  Thread.join mutator;
  let epoch = Server.graph_epoch srv ~graph:"bench" in
  Server.stop srv;
  Array.iter
    (fun e -> Sys.remove (Filename.concat state_dir e))
    (Sys.readdir state_dir);
  Unix.rmdir state_dir;
  if Atomic.get bad > 0 then
    failwith
      (Printf.sprintf "serve-churn: %d failed or wrong-epoch operations"
         (Atomic.get bad));
  let lats = List.sort Float.compare !latencies in
  let mutations = List.length lats in
  let mean = List.fold_left ( +. ) 0. lats /. float_of_int (max 1 mutations) in
  let pick q =
    if mutations = 0 then 0.
    else List.nth lats (min (mutations - 1) (mutations * q / 100))
  in
  let qps = float_of_int (clients * queries) /. dt in
  Harness.print_table
    ~title:
      (Printf.sprintf
         "serving under churn (gadget n=%d, s=%d, %d workers, %d clients, \
          journal fsync on ack)"
         gadget_n s workers clients)
    ~columns:[ "count"; "rate or latency" ]
    ~rows:
      [
        ( "queries",
          [
            Harness.Note (string_of_int (clients * queries));
            Harness.Note (Printf.sprintf "%.1f/s" qps);
          ] );
        ( "mutations",
          [
            Harness.Note (string_of_int mutations);
            Harness.Note (Printf.sprintf "mean %.4fs p95 %.4fs" mean (pick 95));
          ] );
        ( "final epoch",
          [
            Harness.Note
              (match epoch with Some e -> string_of_int e | None -> "?");
            Harness.Note "2 edits per mutation";
          ] );
      ];
  Harness.write_json ~path:"BENCH_daemon_churn.json"
    (Scliques_obs.Sink.Obj
       [
         ("experiment", Scliques_obs.Sink.String "serve-churn");
         ( "graph",
           Scliques_obs.Sink.String (Printf.sprintf "gadget n=%d" gadget_n) );
         ("s", Scliques_obs.Sink.Int s);
         ("workers", Scliques_obs.Sink.Int workers);
         ("clients", Scliques_obs.Sink.Int clients);
         ("queries", Scliques_obs.Sink.Int (clients * queries));
         ("queries_per_sec", Scliques_obs.Sink.Float qps);
         ("wall_seconds", Scliques_obs.Sink.Float dt);
         ("mutations", Scliques_obs.Sink.Int mutations);
         ("mutation_mean_seconds", Scliques_obs.Sink.Float mean);
         ("mutation_p95_seconds", Scliques_obs.Sink.Float (pick 95));
         ( "mutation_max_seconds",
           Scliques_obs.Sink.Float (pick 100) );
         ( "final_epoch",
           Scliques_obs.Sink.Int (Option.value epoch ~default:(-1)) );
       ])

(* ---------- registry ---------- *)

let all : (string * string * (unit -> unit)) list =
  [
    ("datasets", "dataset/proxy summary table (paper §7)", datasets);
    ("fig9a", "BK adaptations on ER graphs", fig9a);
    ("fig9b", "varying nodes, ER", fig9b);
    ("fig9c", "varying nodes, SF", fig9c);
    ("fig9d", "varying density, ER", fig9d);
    ("fig9e", "varying s, ER", fig9e);
    ("fig9f", "delay over all results, ER", fig9f);
    ("fig9g", "varying density, SF", fig9g);
    ("fig9h", "varying s, SF", fig9h);
    ("fig9i", "real-data proxies", fig9i);
    ("fig10a", "large results, ER", fig10a);
    ("fig10b", "large results, SF", fig10b);
    ("fig10c", "large results, proxies", fig10c);
    ("fig11", "avg/max sampled sizes", fig11);
    ("delays", "per-result delay profile (Theorem 4.2)", delays);
    ("abl_cache", "ablation: N^s cache", abl_cache);
    ("abl_index", "ablation: PD index structure", abl_index);
    ("abl_pivot", "ablation: pivot rule", abl_pivot);
    ("abl_queue", "ablation: PD queue discipline", abl_queue);
    ("abl_degeneracy", "ablation: root ordering (footnote 1)", abl_degeneracy);
    ("abl_generic", "ablation: generic CKS engine vs specialized PD", abl_generic);
    ("parallel", "future work: parallel decomposition balance", parallel_balance);
    ("scaling", "work-stealing speedup: workers x graph family", scaling);
    ("load", "graph load: text parse vs binary snapshot + BFS sweep", graph_load);
    ("churn", "incremental refresh vs full recompute after an edge edit", churn);
    ("serve", "daemon throughput: queries/sec at 1/4/8 concurrent clients", serve);
    ( "serve-churn",
      "serving under live wire mutations: throughput + journaled ack latency",
      serve_churn );
  ]
