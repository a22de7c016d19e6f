(* Cross-algorithm differential harness: every implementation of the
   paper — CsCliques1, CsCliques2 under all four pivot/feasibility
   switches, PolyDelayEnum under all four queue/index switches, and the
   domain-parallel decomposition — must emit exactly the same sorted
   set-of-sets on random Erdős–Rényi and scale-free graphs, and every
   emitted set must pass the Verify oracle. *)

module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module C2 = Scliques_core.Cs_cliques2
module PD = Scliques_core.Poly_delay
module V = Scliques_core.Verify

let nh ~s g = Scliques_core.Neighborhood.create ~s g

let collect iter_fn =
  let acc = ref [] in
  iter_fn (fun c -> acc := c :: !acc);
  List.sort NS.compare !acc

(* Every algorithm variant under test, by name. The parameter sweep is
   the point: a bug hiding behind (say) pivoting without feasibility
   shows up as a mismatch against the other eleven. *)
let variants =
  let run alg g s = E.sorted_results alg g ~s in
  let pd ~queue_mode ~index_mode g s =
    collect (fun yield ->
        ignore
          (PD.run ~queue_mode ~index_mode (nh ~s g) yield : PD.run_stats * PD.frontier))
  in
  [
    ("cs1", run E.Cs1);
    ("cs2", run E.Cs2);
    ("cs2-p", run E.Cs2_p);
    ("cs2-f", run E.Cs2_f);
    ("cs2-pf", run E.Cs2_pf);
    ( "cs2-p-deg",
      fun g s ->
        collect (fun yield ->
            C2.run_degeneracy
              (C2.make_runner
                 ~rule:(C2.Cs2 { pivot = Some C2.Min_uncovered; feasibility = false })
                 (nh ~s g) yield))
    );
    ("pd-fifo-btree", pd ~queue_mode:PD.Fifo ~index_mode:PD.Btree);
    ("pd-fifo-hash", pd ~queue_mode:PD.Fifo ~index_mode:PD.Hashtable);
    ("pd-lf-btree", pd ~queue_mode:PD.Largest_first ~index_mode:PD.Btree);
    ("pd-lf-hash", pd ~queue_mode:PD.Largest_first ~index_mode:PD.Hashtable);
    (* split thresholds low enough that the work-stealing scheduler's
       expand/requeue path actually runs on graphs this small *)
    ( "parallel-3",
      fun g s ->
        Scliques_core.Parallel.enumerate ~workers:3 ~split_depth:4 ~split_width:2 g ~s
    );
  ]

(* (family, n, edge parameter, s, seed) — graphs up to 30 nodes; both the
   ER and preferential-attachment families from the paper's §7 setup.
   The size scales down with s: at s = 3 the power graph is near-complete
   and the deliberately unpruned variants (CS1, CS2 without pivoting)
   take seconds per case beyond ~20 nodes — the paper's own Figure 9
   shows them timing out first. *)
let arb_graph_case =
  let open QCheck2.Gen in
  let gen =
    oneofl [ `Er; `Sf ] >>= fun family ->
    int_range 1 3 >>= fun s ->
    int_range 2 (if s >= 3 then 16 else 30) >>= fun n ->
    int_range 0 (3 * n) >>= fun m ->
    int_range 0 1_000_000 >>= fun seed ->
    return (family, n, m, s, seed)
  in
  gen

let print_case (family, n, m, s, seed) =
  Printf.sprintf "(%s, n=%d, m=%d, s=%d, seed=%d)"
    (match family with `Er -> "er" | `Sf -> "sf")
    n m s seed

let graph_of_case (family, n, m, seed) =
  let rng = Scoll.Rng.create seed in
  match family with
  | `Er -> Sgraph.Gen.erdos_renyi_gnm rng ~n ~m:(min m (n * (n - 1) / 2))
  | `Sf -> Sgraph.Gen.barabasi_albert rng ~n ~m_attach:(min (n - 1) (1 + (m mod 3)))

let same_sets = List.equal NS.equal

let show_mismatch name expected actual =
  QCheck2.Test.fail_reportf
    "variant %s disagrees:@.expected %d sets: %a@.got %d sets: %a" name
    (List.length expected)
    (Fmt.Dump.list NS.pp) expected (List.length actual)
    (Fmt.Dump.list NS.pp) actual

let prop_all_variants_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"all 11 variants emit identical sorted sets"
       ~print:print_case arb_graph_case
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let reference =
           match variants with
           | (_, run) :: _ -> run g s
           | [] -> assert false
         in
         List.for_all
           (fun (name, run) ->
             let got = run g s in
             same_sets reference got || show_mismatch name reference got)
           variants))

(* On oracle-sized graphs, also pin the common answer to brute force. *)
let prop_variants_match_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:80 ~name:"variants match the brute-force oracle (n<=12)"
       ~print:print_case
       QCheck2.Gen.(
         arb_graph_case >>= fun (family, n, m, s, seed) ->
         return (family, 2 + (n mod 11), m, s, seed))
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
         List.for_all
           (fun (name, run) ->
             let got = run g s in
             same_sets expected got || show_mismatch name expected got)
           variants))

(* Soundness oracle, both directions of the paper's maximality test:
   emitted sets verify as maximal (extension_candidates empty), and
   dropping any node from a result yields a set that is either no longer
   a connected s-clique or demonstrably non-maximal. *)
let prop_results_are_maximal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:80
       ~name:"every emitted set is a maximal connected s-clique" ~print:print_case
       arb_graph_case
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let results = E.sorted_results E.Cs2_pf g ~s in
         (match V.certify g ~s results with
         | Ok () -> ()
         | Error e -> QCheck2.Test.fail_reportf "certify: %s" e);
         List.for_all
           (fun c ->
             V.is_maximal_connected_s_clique g ~s c
             && NS.is_empty (V.extension_candidates g ~s c))
           results))

let prop_extension_candidates_exact =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"extension_candidates empty exactly on maximal sets" ~print:print_case
       QCheck2.Gen.(
         arb_graph_case >>= fun (family, n, m, s, seed) ->
         return (family, 2 + (n mod 9), m, s, seed))
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         (* all nonempty connected s-cliques, maximal or not *)
         let all = Scliques_core.Brute_force.connected_s_cliques g ~s in
         List.for_all
           (fun c ->
             let maximal = V.is_maximal_connected_s_clique g ~s c in
             let ext = V.extension_candidates g ~s c in
             maximal = NS.is_empty ext
             (* and the candidates really extend: each one yields a
                bigger connected s-clique *)
             && NS.for_all
                  (fun v -> V.is_connected_s_clique g ~s (NS.add v c))
                  ext)
           all))

(* Regression for the schedule-independence guarantee of the
   work-stealing Parallel.enumerate: the returned list must be
   bit-identical for every worker count, and equal to the sequential
   sweep. A failure names the full (family, n, m, s, seed, workers)
   tuple so the case replays deterministically. *)
let prop_parallel_worker_independent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"Parallel.enumerate independent of worker count" ~print:print_case
       arb_graph_case
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let sequential = E.sorted_results E.Cs2_p g ~s in
         List.for_all
           (fun workers ->
             let got = Scliques_core.Parallel.enumerate ~workers g ~s in
             same_sets sequential got
             || show_mismatch
                  (Printf.sprintf "%s workers=%d" (print_case (family, n, m, s, seed))
                     workers)
                  sequential got)
           [ 1; 2; 4 ]))

(* The split thresholds decide WHERE subtrees run, never WHAT they emit:
   disabled splitting, shallow-aggressive and deep-aggressive settings
   must all reproduce the sequential result sets. *)
let prop_parallel_split_independent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:"Parallel.enumerate independent of steal/split thresholds"
       ~print:print_case arb_graph_case
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let sequential = E.sorted_results E.Cs2_p g ~s in
         List.for_all
           (fun (split_depth, split_width) ->
             let got =
               Scliques_core.Parallel.enumerate ~workers:3 ~split_depth ~split_width g
                 ~s
             in
             same_sets sequential got
             || show_mismatch
                  (Printf.sprintf "%s workers=3 split_depth=%d split_width=%d"
                     (print_case (family, n, m, s, seed))
                     split_depth split_width)
                  sequential got)
           [ (0, 8); (2, 4); (6, 2); (100, 1) ]))

(* Same configuration twice in a row: scheduling noise (who stole what,
   in which order) must not leak into the canonicalized output. *)
let prop_parallel_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"Parallel.enumerate deterministic across repeated runs"
       ~print:print_case arb_graph_case
       (fun (family, n, m, s, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let run () =
           Scliques_core.Parallel.enumerate ~workers:4 ~split_depth:3 ~split_width:2 g
             ~s
         in
         let first = run () and second = run () in
         same_sets first second
         || show_mismatch
              (Printf.sprintf "%s rerun" (print_case (family, n, m, s, seed)))
              first second))

let test_parallel_scheduler_stats () =
  (* accounting invariants of the par.* counters on a graph big enough
     that splitting actually happens *)
  let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 11) ~n:60 ~m_attach:3 in
  let obs = Scliques_obs.Obs.create () in
  let results =
    Scliques_core.Parallel.enumerate ~workers:4 ~split_depth:3 ~split_width:2 ~obs g
      ~s:2
  in
  let counter name =
    Option.value ~default:(-1)
      (Scliques_obs.Counters.find (Scliques_obs.Obs.counters obs) name)
  in
  let per_worker what =
    List.fold_left ( + ) 0
      (List.init 4 (fun i -> counter (Printf.sprintf "par.worker%d.%s" i what)))
  in
  let tasks = per_worker "tasks" in
  Alcotest.(check int) "workers counted" 4 (counter "par.workers");
  Alcotest.(check int) "delivered results counted" (List.length results)
    (counter "par.results");
  Alcotest.(check int)
    "per-worker results sum to the total" (List.length results)
    (per_worker "results");
  Alcotest.(check int) "per-worker tasks sum to the total" (counter "par.tasks") tasks;
  Alcotest.(check bool)
    "tasks cover at least the root branches" true
    (tasks >= Sgraph.Graph.n g);
  Alcotest.(check bool)
    "splits were exercised at these thresholds" true
    (counter "par.splits" > 0);
  Alcotest.(check bool)
    "steal count is sane" true
    (counter "par.steals" >= 0 && counter "par.steals" <= tasks)

let test_parallel_fixed_graph () =
  (* deterministic pin of the same guarantee on one scale-free instance *)
  let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 7) ~n:40 ~m_attach:2 in
  let reference = Scliques_core.Parallel.enumerate ~workers:1 g ~s:2 in
  List.iter
    (fun workers ->
      Test_support.check_sets
        (Printf.sprintf "workers=%d" workers)
        reference
        (Scliques_core.Parallel.enumerate ~workers g ~s:2))
    [ 2; 4 ]

(* ---------- root subsets ---------- *)

(* (family, n, edge parameter, s, seed, parts): ER/SF graphs of up to 60
   nodes, fewer as s grows (the unpruned variants run too, as in
   [arb_graph_case]), with the root range [0, n) dealt at random into
   [parts] parts *)
let arb_roots_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 1 3 >>= fun s ->
  int_range 2 (match s with 1 -> 60 | 2 -> 30 | _ -> 16) >>= fun n ->
  int_range 0 (2 * n) >>= fun m ->
  int_range 0 1_000_000 >>= fun seed ->
  int_range 1 4 >>= fun parts -> return (family, n, m, s, seed, parts)

let print_roots_case (family, n, m, s, seed, parts) =
  Printf.sprintf "%s parts=%d" (print_case (family, n, m, s, seed)) parts

let rooted_engines =
  List.concat_map
    (fun alg -> [ (alg, None); (alg, Some 2) ])
    [ E.Cs1; E.Cs2; E.Cs2_f; E.Cs2_p; E.Cs2_pf ]

let prop_root_subsets_partition =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"root subsets partition the answer"
       ~print:print_roots_case arb_roots_case
       (fun (family, n, m, s, seed, parts) ->
         let g = graph_of_case (family, n, m, seed) in
         let full = E.sorted_results E.Cs2_pf g ~s in
         let rng = Scoll.Rng.create (seed + 1) in
         let part_of = Array.init n (fun _ -> Scoll.Rng.int rng parts) in
         let part p = List.filter (fun v -> part_of.(v) = p) (List.init n Fun.id) in
         List.for_all
           (fun (alg, workers) ->
             let label =
               Printf.sprintf "%s workers=%s" (E.name alg)
                 (match workers with Some w -> string_of_int w | None -> "-")
             in
             let got =
               List.concat
                 (List.init parts (fun p ->
                      let roots = part p in
                      let rs =
                        collect (fun sink -> ignore (E.run ?workers ~roots alg g ~s sink))
                      in
                      List.iter
                        (fun c ->
                          if part_of.(NS.min_elt c) <> p then
                            QCheck2.Test.fail_reportf
                              "%s: %a has its root outside part %d" label NS.pp c p)
                        rs;
                      rs))
             in
             let got = List.sort NS.compare got in
             same_sets full got || show_mismatch label full got)
           rooted_engines))

(* PolyDelayEnum where line 11's reuse fires: the sweep above stays at
   30 nodes or fewer, where a carve is seldom inside an earlier child of
   the same C. ER/SF graphs of 60-200 nodes at s = 2-3 (densities kept
   where a full PD run takes well under a second: ER with n to 2n edges
   at s = 2 and n to 3n/2 at s = 3, SF attaching one or two edges per
   node at s = 2 and one at s = 3), both queue modes, min_size 0 and 4.
   PD's sorted answer must equal CS2P's with no set emitted twice, and
   over the sample some carve must have been covered. *)
let arb_covering_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 2 3 >>= fun s ->
  int_range 60 200 >>= fun n ->
  (match (family, s) with
  | `Er, 2 -> int_range n (2 * n)
  | `Er, _ -> int_range n (3 * n / 2)
  | `Sf, 2 -> int_range 0 1 (* m_attach = 1 + m mod 3 *)
  | `Sf, _ -> return 0)
  >>= fun m ->
  oneofl [ PD.Fifo; PD.Largest_first ] >>= fun queue_mode ->
  oneofl [ 0; 4 ] >>= fun min_size ->
  int_range 0 1_000_000 >>= fun seed ->
  return ((family, n, m, s, seed), queue_mode, min_size)

let print_covering_case (case, queue_mode, min_size) =
  Printf.sprintf "%s %s min_size=%d" (print_case case)
    (match queue_mode with PD.Fifo -> "fifo" | PD.Largest_first -> "largest-first")
    min_size

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> NS.compare a b < 0 && strictly_ascending rest
  | _ -> true

let prop_pd_covering =
  let covered = ref 0 in
  let prop =
    QCheck2.Test.make ~count:24 ~name:"PD with covered carves = CS2P, 60-200 nodes"
      ~print:print_covering_case arb_covering_case
      (fun ((family, n, m, s, seed), queue_mode, min_size) ->
        let g = graph_of_case (family, n, m, seed) in
        let obs = Scliques_obs.Obs.create () in
        let got = ref [] in
        ignore
          (PD.run ~queue_mode ~min_size ~obs (nh ~s g) (fun c -> got := c :: !got)
            : PD.run_stats * PD.frontier);
        covered :=
          !covered
          + Scliques_obs.Counters.value (Scliques_obs.Obs.counter obs "pd.carves_covered");
        (* sorted, so a set emitted twice sits next to itself *)
        let got = List.sort NS.compare !got in
        if not (strictly_ascending got) then QCheck2.Test.fail_report "a set was emitted twice";
        let expected = E.sorted_results ~min_size E.Cs2_p g ~s in
        same_sets expected got || show_mismatch "pd" expected got)
  in
  (* the runner's random state, so QCHECK_SEED replays the sample *)
  let name, speed, run = QCheck_alcotest.to_alcotest ~speed_level:`Quick prop in
  ( name,
    speed,
    fun () ->
      covered := 0;
      run ();
      if !covered = 0 then Alcotest.fail "no carve was covered on the whole sample" )

(* PD on ER, SF and WS graphs at s = 1-3, FIFO (min_size 0) and
   largest-first (min_size 3): the sorted answer is CS2P's, no set twice *)
let test_pd_families () =
  let rng = Scoll.Rng.create 25 in
  List.iter
    (fun (family, g) ->
      List.iter
        (fun s ->
          List.iter
            (fun min_size ->
              let label = Printf.sprintf "%s s=%d min_size=%d" family s min_size in
              let got = ref [] in
              ignore
                (E.run ~min_size E.Poly_delay g ~s (fun c -> got := c :: !got)
                  : E.run_report);
              let got = List.sort NS.compare !got in
              if not (strictly_ascending got) then
                Alcotest.failf "%s: a set was emitted twice" label;
              let expected = E.sorted_results ~min_size E.Cs2_p g ~s in
              if not (same_sets expected got) then
                Alcotest.failf "%s: %d sets, CS2P has %d" label (List.length got)
                  (List.length expected))
            [ 0; 3 ])
        [ 1; 2; 3 ])
    [
      ("er", Sgraph.Gen.erdos_renyi_gnm rng ~n:60 ~m:120);
      ("sf", Sgraph.Gen.barabasi_albert rng ~n:60 ~m_attach:2);
      ("ws", Sgraph.Gen.watts_strogatz rng ~n:50 ~k:4 ~beta:0.1);
    ]

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | (_ : E.run_report) -> Alcotest.failf "%s: expected Invalid_argument" name

let test_run_refusals () =
  let g = Sgraph.Gen.exponential_gadget 3 in
  let n = Sgraph.Graph.n g in
  List.iter
    (fun root ->
      raises_invalid (Printf.sprintf "root %d" root) (fun () ->
          E.run ~roots:[ 0; root ] E.Cs2_pf g ~s:2 ignore);
      raises_invalid (Printf.sprintf "root %d, workers" root) (fun () ->
          E.run ~workers:2 ~roots:[ root ] E.Cs2_p g ~s:2 ignore))
    [ -1; n ];
  List.iter
    (fun alg ->
      raises_invalid (E.name alg ^ " with roots") (fun () ->
          E.run ~roots:[ 0 ] alg g ~s:2 ignore))
    [ E.Poly_delay; E.Brute ];
  List.iter
    (fun alg ->
      raises_invalid (E.name alg ^ " with workers") (fun () ->
          E.run ~workers:2 alg g ~s:2 ignore))
    [ E.Poly_delay; E.Brute ]

let suites =
  [
    ( "differential",
      [
        prop_all_variants_agree;
        prop_variants_match_oracle;
        prop_results_are_maximal;
        prop_extension_candidates_exact;
        prop_pd_covering;
        Alcotest.test_case "PD = CS2P on ER/SF/WS, s = 1-3, both queues" `Quick
          test_pd_families;
      ] );
    ( "parallel_canonical",
      [
        prop_parallel_worker_independent;
        prop_parallel_split_independent;
        prop_parallel_deterministic;
        Alcotest.test_case "fixed graph, workers 1/2/4" `Quick
          test_parallel_fixed_graph;
        Alcotest.test_case "scheduler stats invariants" `Quick
          test_parallel_scheduler_stats;
      ] );
    ( "root_subsets",
      [
        prop_root_subsets_partition;
        Alcotest.test_case "run refuses bad roots and workers" `Quick test_run_refusals;
      ] );
  ]
