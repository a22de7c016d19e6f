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

(* PD, whose ExtendMax asks the oracle for a ball at every step: the
   rooted engines read it once per root at s <= 2 (their other rows come
   from CSR rows), so the memo has nothing to save them there *)
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
          E.run ~nh:n ~budget E.Poly_delay g ~s:2 yield)
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
         "Ablation: N^s cache (PD, first 1000, ER n=%s deg 10, s=2)"
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
  ]
