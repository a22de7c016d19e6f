(* The enumeration algorithms themselves: Bron_kerbosch (baseline),
   Poly_delay, Cs_cliques1, Cs_cliques2, and the Enumerate front-end. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module Nh = Scliques_core.Neighborhood
module Bk = Scliques_core.Bron_kerbosch
module E = Scliques_core.Enumerate

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let of_l = NS.of_list
let fig1 () = fst (Sgraph.Gen.figure1 ())

let sorted l = List.sort NS.compare l

let bk_strategies = [ ("plain", Bk.Plain); ("pivot", Bk.Pivot); ("degeneracy", Bk.Degeneracy) ]

let bk_count ?strategy g = List.length (Bk.maximal_cliques ?strategy g)

let bron_kerbosch_tests =
  List.concat_map
    (fun (sname, strategy) ->
      [
        Alcotest.test_case (sname ^ ": figure 1 has six maximal cliques") `Quick
          (fun () ->
            let cliques = sorted (Bk.maximal_cliques ~strategy (fig1 ())) in
            check Test_support.ns_list "exact sets"
              (sorted
                 [ of_l [ 0; 1; 2 ]; of_l [ 1; 2; 3 ]; of_l [ 3; 4; 5 ]; of_l [ 4; 5; 7 ];
                   of_l [ 3; 6 ]; of_l [ 6; 7 ] ])
              cliques);
        Alcotest.test_case (sname ^ ": Moon-Moser 3^k maximal cliques") `Quick
          (fun () ->
            List.iter
              (fun parts ->
                let g = Sgraph.Gen.complete_multipartite ~parts ~part_size:3 in
                check int
                  (Printf.sprintf "parts=%d" parts)
                  (int_of_float (3. ** float_of_int parts))
                  (bk_count ~strategy g))
              [ 1; 2; 3; 4; 5 ]);
        Alcotest.test_case (sname ^ ": petersen cliques are its 15 edges") `Quick
          (fun () ->
            let cliques = Bk.maximal_cliques ~strategy (Sgraph.Gen.petersen ()) in
            check int "count" 15 (List.length cliques);
            List.iter (fun c -> check int "size 2" 2 (NS.cardinal c)) cliques);
        Alcotest.test_case (sname ^ ": complete graph is one clique") `Quick (fun () ->
            check Test_support.ns_list "K6" [ NS.range 0 6 ]
              (Bk.maximal_cliques ~strategy (Sgraph.Gen.complete 6)));
        Alcotest.test_case (sname ^ ": edgeless graph gives singletons") `Quick
          (fun () ->
            check int "4 singletons" 4 (bk_count ~strategy (G.empty 4)));
        Alcotest.test_case (sname ^ ": empty graph gives nothing") `Quick (fun () ->
            check int "none" 0 (bk_count ~strategy (G.empty 0)));
        Alcotest.test_case (sname ^ ": matches s=1 brute force on random graphs")
          `Quick (fun () ->
            let rng = Scoll.Rng.create 50 in
            for _ = 1 to 15 do
              let n = 4 + Scoll.Rng.int rng 6 in
              let m = Scoll.Rng.int rng (n * (n - 1) / 2 + 1) in
              let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
              check Test_support.ns_list "same cliques"
                (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s:1)
                (sorted (Bk.maximal_cliques ~strategy g))
            done);
      ])
    bk_strategies
  @ [
      Alcotest.test_case "min_size prunes output" `Quick (fun () ->
          let g = fig1 () in
          let big = ref [] in
          Bk.iter ~min_size:3 g (fun c -> big := c :: !big);
          check int "four triangles" 4 (List.length !big);
          List.iter (fun c -> check bool ">= 3" true (NS.cardinal c >= 3)) !big);
      Alcotest.test_case "max_clique_size" `Quick (fun () ->
          check int "fig1" 3 (Bk.max_clique_size (fig1 ()));
          check int "K7" 7 (Bk.max_clique_size (Sgraph.Gen.complete 7));
          check int "empty" 0 (Bk.max_clique_size (G.empty 0)));
      Alcotest.test_case "power reduction (Remark 1) matches the oracle" `Quick
        (fun () ->
          let rng = Scoll.Rng.create 51 in
          for _ = 1 to 10 do
            let g = Sgraph.Gen.erdos_renyi_gnm rng ~n:9 ~m:12 in
            let s = 1 + Scoll.Rng.int rng 3 in
            check Test_support.ns_list "maximal s-cliques"
              (Scliques_core.Brute_force.maximal_s_cliques g ~s)
              (sorted (Bk.maximal_s_cliques_via_power g ~s))
          done);
      Alcotest.test_case "power reduction demonstrates Remark 1's warning" `Quick
        (fun () ->
          (* 6-cycle: {0,2,4} is a maximal 2-clique via the power graph but
             unconnected, so connected enumeration must not report it *)
          let c6 = Sgraph.Gen.cycle 6 in
          let via_power = Bk.maximal_s_cliques_via_power c6 ~s:2 in
          let connected = E.sorted_results E.Cs2_p c6 ~s:2 in
          check bool "power finds {0,2,4}" true
            (List.exists (NS.equal (of_l [ 0; 2; 4 ])) via_power);
          check bool "connected enumeration must not" true
            (not (List.exists (NS.equal (of_l [ 0; 2; 4 ])) connected)));
      Alcotest.test_case "should_continue=false stops immediately" `Quick (fun () ->
          let count = ref 0 in
          Bk.iter ~should_continue:(fun () -> false) (Sgraph.Gen.complete 8) (fun _ ->
              incr count);
          check int "nothing" 0 !count);
    ]

(* named variants, paper plots *)
let variants =
  [ E.Poly_delay; E.Cs1; E.Cs2; E.Cs2_f; E.Cs2_p; E.Cs2_pf ]

let per_variant name f = List.map (fun alg -> f (E.name alg ^ ": " ^ name) alg) variants

let g_fig = fst (Sgraph.Gen.figure1 ())

let connected_tests =
  per_variant "figure 1 ground truth across s" (fun title alg ->
      Alcotest.test_case title `Quick (fun () ->
          let g = fig1 () in
          List.iter
            (fun (s, expected) ->
              check int (Printf.sprintf "s=%d" s) expected (Test_support.count alg g ~s))
            [ (1, 6); (2, 3); (3, 2); (4, 1) ]))
  @ per_variant "exact sets on figure 1 at s=2" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            check Test_support.ns_list "the three communities"
              [ of_l [ 0; 1; 2; 3 ]; of_l [ 1; 2; 3; 4; 5; 6 ]; of_l [ 3; 4; 5; 6; 7 ] ]
              (E.sorted_results alg g_fig ~s:2)))
  @ per_variant "H graph of figure 3" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            let h = Sgraph.Gen.figure3_h () in
            check Test_support.ns_list "same as oracle"
              (Scliques_core.Brute_force.maximal_connected_s_cliques h ~s:2)
              (E.sorted_results alg h ~s:2)))
  @ per_variant "disconnected input handled" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            (* two triangles, no connection *)
            let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ] in
            check Test_support.ns_list "one per component"
              [ of_l [ 0; 1; 2 ]; of_l [ 3; 4; 5 ] ]
              (E.sorted_results alg g ~s:2)))
  @ per_variant "isolated nodes become singletons" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            check Test_support.ns_list "singletons"
              [ of_l [ 0 ]; of_l [ 1 ] ]
              (E.sorted_results alg (G.empty 2) ~s:2)))
  @ per_variant "empty graph yields nothing" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            check int "none" 0 (Test_support.count alg (G.empty 0) ~s:2)))
  @ per_variant "single node" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            check Test_support.ns_list "it alone" [ of_l [ 0 ] ]
              (E.sorted_results alg (G.empty 1) ~s:3)))
  @ per_variant "star at s=2 is one set" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            (* every leaf pair is at distance 2 through the hub *)
            check Test_support.ns_list "whole star" [ NS.range 0 6 ]
              (E.sorted_results alg (Sgraph.Gen.star 6) ~s:2)))
  @ per_variant "exponential gadget n=2" (fun title alg ->
        Alcotest.test_case title `Quick (fun () ->
            let g = Sgraph.Gen.exponential_gadget 2 in
            check Test_support.ns_list "same as oracle"
              (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s:2)
              (E.sorted_results alg g ~s:2)))

let poly_delay_tests =
  let module Pd = Scliques_core.Poly_delay in
  let module Cs2 = Scliques_core.Cs_cliques2 in
  (* a run's results; its stats and frontier are not looked at *)
  let run ?queue_mode ?index_mode ?min_size ?should_continue nh yield =
    ignore
      (Pd.run ?queue_mode ?index_mode ?min_size ?should_continue nh yield
        : Pd.run_stats * Pd.frontier)
  in
  [
    Alcotest.test_case "largest_first yields in non-increasing size" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 12) ~n:60 ~avg_degree:4. in
        let nh = Nh.create ~s:2 g in
        let sizes = ref [] in
        run ~queue_mode:Pd.Largest_first nh (fun c -> sizes := NS.cardinal c :: !sizes);
        (* the priority queue orders the *frontier*, so sizes are not
           globally sorted; but the first result must be a largest seed and
           the stream must match the FIFO stream as a set *)
        let fifo = ref [] in
        run nh (fun c -> fifo := c :: !fifo);
        check int "same count" (List.length !fifo) (List.length !sizes));
    Alcotest.test_case "min_size filters but still explores" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~s:2 g in
        let got = ref [] in
        run ~min_size:5 nh (fun c -> got := c :: !got);
        check Test_support.ns_list "two big communities"
          [ of_l [ 1; 2; 3; 4; 5; 6 ]; of_l [ 3; 4; 5; 6; 7 ] ]
          (sorted !got));
    Alcotest.test_case "run stats count index inserts" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        let stats, (_ : Pd.frontier) = Pd.run nh (fun _ -> ()) in
        check int "3 results" 3 stats.Pd.results;
        check int "3 generated" 3 stats.Pd.generated);
    Alcotest.test_case "should_continue stops the queue loop" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 14) ~n:80 ~avg_degree:4. in
        let nh = Nh.create ~s:2 g in
        let seen = ref 0 in
        run ~should_continue:(fun () -> !seen < 3) nh (fun _ -> incr seen);
        check bool "stopped early" true (!seen <= 3));
    Alcotest.test_case "hashtable index enumerates the same family" `Quick (fun () ->
        let g = Test_support.random_graph 21 ~n:30 ~m:70 in
        let collect index_mode =
          let nh = Nh.create ~s:2 g in
          let acc = ref [] in
          run ~index_mode nh (fun c -> acc := c :: !acc);
          sorted !acc
        in
        check Test_support.ns_list "btree = hashtable"
          (collect Pd.Btree) (collect Pd.Hashtable));
    Alcotest.test_case "first-candidate pivot rule stays correct" `Quick (fun () ->
        let rng = Scoll.Rng.create 22 in
        for _ = 1 to 10 do
          let n = 4 + Scoll.Rng.int rng 6 in
          let m = Scoll.Rng.int rng (n * (n - 1) / 2 + 1) in
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
          let s = 1 + Scoll.Rng.int rng 2 in
          let nh = Nh.create ~s g in
          let acc = ref [] in
          let rn =
            Cs2.make_runner
              ~rule:(Cs2.Cs2 { pivot = Some Cs2.First_candidate; feasibility = false })
              nh (fun c -> acc := c :: !acc)
          in
          for v = 0 to G.n g - 1 do
            Cs2.run_task rn (Cs2.root_task nh v)
          done;
          check Test_support.ns_list "matches oracle"
            (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s)
            (sorted !acc)
        done);
    Alcotest.test_case "delay spot check: results stream before completion" `Quick
      (fun () ->
        (* on the exponential gadget the full output is large; the first
           result must arrive after O(poly) work. We simply check the
           first 5 arrive without enumerating everything. *)
        let g = Sgraph.Gen.exponential_gadget 6 in
        let first = E.first_n E.Poly_delay g ~s:2 5 in
        check int "5 results" 5 (List.length first));
    Alcotest.test_case "CS2 told to stop builds no root" `Quick (fun () ->
        (* a root's task costs its ball: a run whose budget is spent from
           the start, in ascending order or footnote 1's, must stop before
           the first one *)
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 23) ~n:200 ~avg_degree:6. in
        let emitted = ref 0 in
        let no_balls obs =
          check int "results" 0 !emitted;
          let bfs = Scliques_obs.Obs.counter obs "nh.bfs_expansions" in
          check int "nh.bfs_expansions" 0 (Scliques_obs.Counters.value bfs)
        in
        let obs = Scliques_obs.Obs.create () in
        let budget = Scliques_core.Budget.create ~max_results:0 () in
        let (_ : E.run_report) =
          E.run ~obs ~budget E.Cs2_p g ~s:2 (fun _ -> incr emitted)
        in
        no_balls obs;
        let obs = Scliques_obs.Obs.create () in
        let nh = Nh.create ~obs ~s:2 g in
        Cs2.run_degeneracy
          (Cs2.make_runner
             ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = false })
             ~should_continue:(fun () -> false) ~obs nh
             (fun _ -> incr emitted));
        Nh.sync_obs nh;
        no_balls obs);
    Alcotest.test_case "covered carves follow the child masks and the rings (SF hub)"
      `Quick (fun () ->
        (* SF n=200: a hub's sets have more than 62 children, so the
           child masks see only the first 62 of them, and a node's ring
           only its 62 most recent sets. A set-algebra model of the loop
           must print PD's sets in PD's order and give its counters;
           with no cap it covers more, so the caps are exercised *)
        let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 1) ~n:200 ~m_attach:2 in
        let s = 2 in
        let module M = struct
          let run ~cap =
            let module Em = Scliques_core.Extend_max in
            let module Known = Set.Make (NS) in
            let nh = Nh.create ~s g in
            let known = ref Known.empty and queue = Queue.create () in
            let rings = Array.make (G.n g) [] and pushed = Array.make (G.n g) 0 in
            let calls = ref 0 and covered = ref 0 and hits = ref 0 and widest = ref 0 in
            let out = ref [] in
            let extend c =
              incr calls;
              Em.in_graph nh c
            in
            let register c =
              if not (Known.mem c !known) then begin
                known := Known.add c !known;
                Queue.push c queue;
                NS.iter
                  (fun x ->
                    pushed.(x) <- pushed.(x) + 1;
                    rings.(x) <- List.filteri (fun i _ -> i < cap) (c :: rings.(x)))
                  c
              end
            in
            List.iter
              (fun comp -> register (extend (NS.singleton (NS.min_elt comp))))
              (Sgraph.Components.components g);
            while not (Queue.is_empty queue) do
              let c = Queue.pop queue in
              out := c :: !out;
              let kids = ref [] and n_kids = ref 0 in
              let kid k =
                kids := (!n_kids, k) :: !kids;
                incr n_kids
              in
              let inside set =
                List.exists (fun (j, k) -> j < cap && NS.subset set k) !kids
              in
              NS.iter
                (fun v ->
                  if inside (NS.add v (NS.inter c (Nh.ball nh v))) then incr covered
                  else begin
                    incr calls;
                    let carved = Test_extend_max.greedy_carve nh c v in
                    if inside carved then incr covered
                    else
                      let x =
                        NS.fold
                          (fun y best -> if pushed.(y) < pushed.(best) then y else best)
                          carved (NS.min_elt carved)
                      in
                      match List.find_opt (NS.subset carved) rings.(x) with
                      | Some k ->
                          incr hits;
                          kid k
                      | None ->
                          let child = extend carved in
                          register child;
                          kid child
                  end)
                (Nh.adjacent_any nh c);
              widest := Int.max !widest !n_kids
            done;
            (List.rev !out, !calls, !covered, !hits, !widest)
        end in
        let order, calls, covered, hits, widest = M.run ~cap:62 in
        let _, _, uncapped, uncapped_hits, _ = M.run ~cap:max_int in
        check bool "some C has more than 62 children" true (widest > 62);
        check bool "the caps change what is covered" true
          (uncapped + uncapped_hits > covered + hits);
        check bool "some carve is found in the rings" true (hits > 0);
        let obs = Scliques_obs.Obs.create () in
        let got = ref [] in
        ignore
          (Pd.run ~obs (Nh.create ~s g) (fun c -> got := c :: !got)
            : Pd.run_stats * Pd.frontier);
        check Test_support.ns_list "PD's order" order (List.rev !got);
        check Test_support.ns_list "answer" (E.sorted_results E.Cs2_p g ~s) (sorted !got);
        let ctr name = Scliques_obs.Counters.value (Scliques_obs.Obs.counter obs name) in
        check int "pd.carves_covered" covered (ctr "pd.carves_covered");
        check int "pd.ring_hits" hits (ctr "pd.ring_hits");
        (* the seed, the carves built and the extensions *)
        check int "pd.extend_max_calls" calls (ctr "pd.extend_max_calls"));
  ]

let enumerate_tests =
  [
    Alcotest.test_case "names round-trip" `Quick (fun () ->
        List.iter
          (fun alg ->
            check bool (E.name alg) true (E.of_name (E.name alg) = Some alg))
          E.all;
        check bool "alias cs2pf" true (E.of_name "cs2pf" = Some E.Cs2_pf);
        check bool "alias PD" true (E.of_name "PD" = Some E.Poly_delay);
        check bool "unknown" true (E.of_name "nope" = None));
    Alcotest.test_case "first_n stops early" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 15) ~n:100 ~avg_degree:6. in
        let r = E.first_n E.Cs2_p g ~s:2 7 in
        check int "exactly 7" 7 (List.length r));
    Alcotest.test_case "first_n larger than total returns all" `Quick (fun () ->
        check int "3" 3 (List.length (E.first_n E.Cs2_p (fig1 ()) ~s:2 100)));
    Alcotest.test_case "count equals list length" `Quick (fun () ->
        let g = Test_support.random_graph 16 ~n:30 ~m:60 in
        check int "consistent" (List.length (E.sorted_results E.Cs2_p g ~s:2))
          (Test_support.count E.Cs2_p g ~s:2));
    Alcotest.test_case "min_size optimized vs filtered agree" `Quick (fun () ->
        let g = Test_support.random_graph 17 ~n:25 ~m:50 in
        List.iter
          (fun alg ->
            List.iter
              (fun k ->
                let optimized = E.sorted_results ~min_size:k alg g ~s:2 in
                let filtered =
                  List.filter
                    (fun c -> NS.cardinal c >= k)
                    (E.sorted_results alg g ~s:2)
                in
                check Test_support.ns_list
                  (Printf.sprintf "%s k=%d" (E.name alg) k)
                  filtered optimized)
              [ 2; 4; 6 ])
          variants);
    Alcotest.test_case "optimized:false yields the same large sets" `Quick (fun () ->
        let g = Test_support.random_graph 18 ~n:25 ~m:60 in
        List.iter
          (fun alg ->
            (* Fig. 10's baseline: the full run, filtered at the output *)
            let opt = E.sorted_results ~min_size:5 alg g ~s:2 in
            let plain =
              List.filter
                (fun c -> NS.cardinal c >= 5)
                (Test_support.run_results alg g ~s:2)
            in
            check Test_support.ns_list (E.name alg) (sorted plain) opt)
          variants);
    Alcotest.test_case "brute via front-end honors min_size" `Quick (fun () ->
        check int "only >= 4 on fig1 s=2" 3
          (Test_support.count ~min_size:4 E.Brute (fig1 ()) ~s:2));
    Alcotest.test_case "cache_capacity 0 still correct" `Quick (fun () ->
        let g = Test_support.random_graph 19 ~n:20 ~m:40 in
        List.iter
          (fun alg ->
            check Test_support.ns_list (E.name alg)
              (E.sorted_results alg g ~s:2)
              (E.sorted_results ~cache_capacity:0 alg g ~s:2))
          variants);
    Alcotest.test_case "s=1 equals Bron-Kerbosch cliques" `Quick (fun () ->
        let g = Test_support.random_graph 20 ~n:25 ~m:70 in
        let bk = sorted (Bk.maximal_cliques g) in
        List.iter
          (fun alg ->
            check Test_support.ns_list (E.name alg) bk (E.sorted_results alg g ~s:1))
          variants);
    Alcotest.test_case "should_continue=false stops every variant" `Quick (fun () ->
        let g = Test_support.random_graph 23 ~n:40 ~m:100 in
        List.iter
          (fun alg ->
            let seen = ref 0 in
            let budget = Scliques_core.Budget.create () in
            Scliques_core.Budget.request_cancel budget;
            let (_ : E.run_report) = E.run ~budget alg g ~s:2 (fun _ -> incr seen) in
            check int (E.name alg) 0 !seen)
          variants);
    Alcotest.test_case "largest returns the k biggest, descending" `Quick (fun () ->
        let g = Test_support.random_graph 25 ~n:30 ~m:80 in
        let all = E.sorted_results E.Cs2_p g ~s:2 in
        let by_size =
          List.sort
            (fun a b ->
              let c = compare (NS.cardinal b) (NS.cardinal a) in
              if c <> 0 then c else NS.compare a b)
            all
        in
        List.iter
          (fun k ->
            let expected = List.filteri (fun i _ -> i < k) by_size in
            check Test_support.ns_list
              (Printf.sprintf "top %d" k)
              expected
              (E.largest E.Cs2_p g ~s:2 k))
          [ 0; 1; 3; 10; 1000 ]);
    Alcotest.test_case "largest on figure 1 finds the 6-person community" `Quick
      (fun () ->
        match E.largest E.Cs2_pf (fig1 ()) ~s:2 1 with
        | [ c ] -> check int "size 6" 6 (NS.cardinal c)
        | _ -> Alcotest.fail "expected exactly one");
    Alcotest.test_case "results arrive in deterministic order" `Quick (fun () ->
        let g = Test_support.random_graph 24 ~n:30 ~m:70 in
        List.iter
          (fun alg ->
            let a = Test_support.run_results alg g ~s:2 in
            let b = Test_support.run_results alg g ~s:2 in
            check Test_support.ns_list (E.name alg) a b)
          variants);
    Alcotest.test_case "first_n and unbudgeted runs stop at the n-th result found"
      `Quick (fun () ->
        (* root 0's branch of the gadget alone holds far more than 3
           results: holding them back until the root commits would make
           the search emit all of them first *)
        let g = Sgraph.Gen.exponential_gadget 6 in
        let emits alg go =
          let obs = Scliques_obs.Obs.create () in
          go obs;
          let engine =
            match alg with E.Poly_delay -> "pd" | E.Cs1 -> "cs1" | _ -> "cs2"
          in
          Scliques_obs.Counters.find (Scliques_obs.Obs.counters obs) (engine ^ ".emits")
        in
        List.iter
          (fun alg ->
            check (Alcotest.option int) (E.name alg ^ " first_n") (Some 3)
              (emits alg (fun obs -> ignore (E.first_n ~obs alg g ~s:2 3)));
            check (Alcotest.option int) (E.name alg ^ " run") (Some 3)
              (emits alg (fun obs ->
                   let got = ref 0 in
                   let exception Enough in
                   try
                     let (_ : E.run_report) =
                       E.run ~obs alg g ~s:2 (fun _ ->
                           incr got;
                           if !got = 3 then raise Enough)
                     in
                     ()
                   with Enough -> ())))
          variants);
  ]

let suites =
  [
    ("bron_kerbosch", bron_kerbosch_tests);
    ("connected_s_cliques", connected_tests);
    ("poly_delay", poly_delay_tests);
    ("enumerate", enumerate_tests);
  ]
