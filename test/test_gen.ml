(* Graph generators: structural guarantees, determinism, and the paper's
   gadget graphs. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module Gen = Sgraph.Gen
module Rng = Scoll.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let deterministic name build =
  Alcotest.test_case (name ^ " deterministic from seed") `Quick (fun () ->
      check bool "equal graphs" true (G.equal (build (Rng.create 7)) (build (Rng.create 7))))

let random_tests =
  [
    Alcotest.test_case "gnm exact edge count" `Quick (fun () ->
        let g = Gen.erdos_renyi_gnm (Rng.create 1) ~n:100 ~m:250 in
        check int "n" 100 (G.n g);
        check int "m" 250 (G.m g));
    Alcotest.test_case "gnm m=0 and m=max" `Quick (fun () ->
        check int "m=0" 0 (G.m (Gen.erdos_renyi_gnm (Rng.create 1) ~n:10 ~m:0));
        check int "complete" 45 (G.m (Gen.erdos_renyi_gnm (Rng.create 1) ~n:10 ~m:45)));
    Alcotest.test_case "gnm rejects impossible m" `Quick (fun () ->
        Alcotest.check_raises "too many"
          (Invalid_argument "Gen.erdos_renyi_gnm: m=46 exceeds 45") (fun () ->
            ignore (Gen.erdos_renyi_gnm (Rng.create 1) ~n:10 ~m:46)));
    Alcotest.test_case "erdos_renyi hits the average degree" `Quick (fun () ->
        let g = Gen.erdos_renyi (Rng.create 2) ~n:1000 ~avg_degree:10. in
        check int "m = n*d/2" 5000 (G.m g));
    Alcotest.test_case "gnp edge count concentrates" `Quick (fun () ->
        let g = Gen.erdos_renyi_gnp (Rng.create 3) ~n:500 ~p:0.05 in
        let expected = 0.05 *. float_of_int (500 * 499 / 2) in
        let m = float_of_int (G.m g) in
        check bool "within 15%" true (Float.abs (m -. expected) < 0.15 *. expected));
    Alcotest.test_case "gnp p=0 and p=1" `Quick (fun () ->
        check int "p=0" 0 (G.m (Gen.erdos_renyi_gnp (Rng.create 1) ~n:20 ~p:0.));
        check int "p=1 complete" 190 (G.m (Gen.erdos_renyi_gnp (Rng.create 1) ~n:20 ~p:1.)));
    Alcotest.test_case "barabasi_albert node and edge counts" `Quick (fun () ->
        let n = 500 and m_attach = 3 in
        let g = Gen.barabasi_albert (Rng.create 4) ~n ~m_attach in
        check int "n" n (G.n g);
        (* seed clique (m+1 choose 2) + m per subsequent node, bar collisions *)
        let expected = (m_attach * (m_attach + 1) / 2) + (m_attach * (n - m_attach - 1)) in
        check bool "close to expected" true (G.m g <= expected && G.m g > expected * 9 / 10));
    Alcotest.test_case "barabasi_albert is connected" `Quick (fun () ->
        check bool "connected" true
          (Sgraph.Components.is_connected (Gen.barabasi_albert (Rng.create 5) ~n:300 ~m_attach:2)));
    Alcotest.test_case "barabasi_albert has heavy tail" `Quick (fun () ->
        let g = Gen.barabasi_albert (Rng.create 6) ~n:2000 ~m_attach:5 in
        (* scale-free graphs have hubs far above the mean degree *)
        check bool "hub exists" true (G.max_degree g > 5 * 10));
    Alcotest.test_case "barabasi_albert rejects bad sizes" `Quick (fun () ->
        Alcotest.check_raises "n too small"
          (Invalid_argument "Gen.barabasi_albert: need n >= m_attach + 1") (fun () ->
            ignore (Gen.barabasi_albert (Rng.create 1) ~n:3 ~m_attach:3)));
    Alcotest.test_case "watts_strogatz beta=0 is the ring lattice" `Quick (fun () ->
        let g = Gen.watts_strogatz (Rng.create 7) ~n:20 ~k:2 ~beta:0. in
        check int "m = n*k" 40 (G.m g);
        check bool "lattice edge" true (G.mem_edge g 0 2);
        check bool "no chord" false (G.mem_edge g 0 5));
    Alcotest.test_case "watts_strogatz beta=1 keeps edge count" `Quick (fun () ->
        let g = Gen.watts_strogatz (Rng.create 8) ~n:50 ~k:3 ~beta:1. in
        check int "m preserved" 150 (G.m g));
    Alcotest.test_case "planted_partition favors intra-community edges" `Quick (fun () ->
        let g = Gen.planted_partition (Rng.create 9) ~n:100 ~communities:4 ~p_in:0.5 ~p_out:0.01 in
        let intra = ref 0 and inter = ref 0 in
        G.iter_edges
          (fun u v ->
            if u * 4 / 100 = v * 4 / 100 then incr intra else incr inter)
          g;
        check bool "mostly intra" true (!intra > 5 * !inter));
    Alcotest.test_case "social_proxy degree calibration" `Quick (fun () ->
        let g = Gen.social_proxy (Rng.create 10) ~n:2000 ~avg_degree:8. ~communities:40 in
        let avg = Sgraph.Metrics.avg_degree g in
        check bool "within 20% of target" true (Float.abs (avg -. 8.) < 1.6));
    Alcotest.test_case "social_proxy clusters more than ER" `Quick (fun () ->
        let proxy = Gen.social_proxy (Rng.create 11) ~n:2000 ~avg_degree:8. ~communities:40 in
        let er = Gen.erdos_renyi (Rng.create 11) ~n:2000 ~avg_degree:8. in
        check bool "higher clustering" true
          (Sgraph.Metrics.global_clustering proxy > 2. *. Sgraph.Metrics.global_clustering er));
    Alcotest.test_case "random_tree is a tree" `Quick (fun () ->
        let rng = Rng.create 12 in
        for _ = 1 to 20 do
          let n = 1 + Rng.int rng 60 in
          let g = Gen.random_tree rng ~n in
          check int (Printf.sprintf "n-1 edges (n=%d)" n) (n - 1) (G.m g);
          check bool "connected" true (Sgraph.Components.is_connected g)
        done);
    deterministic "random_tree" (fun rng -> Gen.random_tree rng ~n:100);
    deterministic "gnm" (fun rng -> Gen.erdos_renyi_gnm rng ~n:200 ~m:400);
    deterministic "gnp" (fun rng -> Gen.erdos_renyi_gnp rng ~n:200 ~p:0.02);
    deterministic "barabasi_albert" (fun rng -> Gen.barabasi_albert rng ~n:200 ~m_attach:3);
    deterministic "watts_strogatz" (fun rng -> Gen.watts_strogatz rng ~n:100 ~k:2 ~beta:0.2);
    deterministic "social_proxy" (fun rng -> Gen.social_proxy rng ~n:300 ~avg_degree:6. ~communities:10);
  ]

let fixture_tests =
  [
    Alcotest.test_case "complete" `Quick (fun () ->
        let g = Gen.complete 6 in
        check int "m" 15 (G.m g);
        check int "regular" 5 (G.max_degree g));
    Alcotest.test_case "path / cycle / star" `Quick (fun () ->
        check int "path m" 4 (G.m (Gen.path 5));
        check int "cycle m" 5 (G.m (Gen.cycle 5));
        check int "star m" 5 (G.m (Gen.star 6));
        check int "degenerate cycle = path" 1 (G.m (Gen.cycle 2)));
    Alcotest.test_case "grid" `Quick (fun () ->
        let g = Gen.grid 3 4 in
        check int "n" 12 (G.n g);
        check int "m = r(c-1)+c(r-1)" 17 (G.m g);
        check bool "horizontal" true (G.mem_edge g 0 1);
        check bool "vertical" true (G.mem_edge g 0 4);
        check bool "no diagonal" false (G.mem_edge g 0 5));
    Alcotest.test_case "complete_bipartite" `Quick (fun () ->
        let g = Gen.complete_bipartite 3 4 in
        check int "m" 12 (G.m g);
        check bool "across" true (G.mem_edge g 0 3);
        check bool "not within" false (G.mem_edge g 0 1));
    Alcotest.test_case "complete_multipartite (Moon-Moser)" `Quick (fun () ->
        let g = Gen.complete_multipartite ~parts:3 ~part_size:3 in
        check int "n" 9 (G.n g);
        check int "m" 27 (G.m g);
        check bool "across parts" true (G.mem_edge g 0 3);
        check bool "within part" false (G.mem_edge g 0 1));
    Alcotest.test_case "petersen basics" `Quick (fun () ->
        let g = Gen.petersen () in
        check int "n" 10 (G.n g);
        check int "m" 15 (G.m g);
        check int "3-regular" 3 (G.max_degree g);
        check int "no triangles" 0 (Sgraph.Metrics.triangle_count g));
    Alcotest.test_case "figure1 matches the paper" `Quick (fun () ->
        let g, name = Gen.figure1 () in
        check int "8 people" 8 (G.n g);
        check int "12 edges" 12 (G.m g);
        check Alcotest.string "node 0" "Ann" (name 0);
        check Alcotest.string "node 7" "Hal" (name 7);
        (* Dan bridges the two communities *)
        check bool "Dan-Guy" true (G.mem_edge g 3 6);
        check bool "Ann-Hal absent" false (G.mem_edge g 0 7));
    Alcotest.test_case "figure3_h matches the paper" `Quick (fun () ->
        let g = Gen.figure3_h () in
        check int "6 nodes" 6 (G.n g);
        check int "7 edges" 7 (G.m g);
        check bool "v2-v6 chord" true (G.mem_edge g 1 5));
    Alcotest.test_case "exponential gadget size formula" `Quick (fun () ->
        List.iter
          (fun n ->
            let g = Gen.exponential_gadget n in
            check int
              (Printf.sprintf "2n + n(n-1) + 2 for n=%d" n)
              ((2 * n) + (n * (n - 1)) + 2)
              (G.n g))
          [ 1; 2; 3; 5 ]);
    Alcotest.test_case "exponential gadget distances (Example 3.4)" `Quick (fun () ->
        let n = 3 in
        let g = Gen.exponential_gadget n in
        let v i = i and v' i = n + i in
        (* v_i to v'_j at distance 2 when i <> j, 3 when i = j *)
        check int "v0 to v'1" 2 (Sgraph.Bfs.distance g (v 0) (v' 1));
        check int "v0 to v'0" 3 (Sgraph.Bfs.distance g (v 0) (v' 0));
        (* w and w' within distance 2 of everything *)
        let w = 2 * n and w' = (2 * n) + 1 in
        G.iter_nodes
          (fun u ->
            if u <> w then check bool "w close" true (Sgraph.Bfs.distance g w u <= 2);
            if u <> w' then check bool "w' close" true (Sgraph.Bfs.distance g w' u <= 2))
          g);
    Alcotest.test_case "exponential gadget has >= 2^n maximal connected 2-cliques"
      `Quick (fun () ->
        List.iter
          (fun n ->
            let g = Gen.exponential_gadget n in
            let count = Test_support.count Scliques_core.Enumerate.Cs2_p g ~s:2 in
            check bool
              (Printf.sprintf "n=%d: %d >= 2^%d" n count n)
              true
              (count >= 1 lsl n))
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "gadget: exact count matches Example 3.4 closed form" `Quick
      (fun () ->
        (* all results include {w, w'}; besides the 2^n choice-sets there
           are n(n-1) sets {v_i, v'_j, u_ij} and 2n sets {v_i} ∪ {u_i*} /
           {v'_j} ∪ {u_*j}. Exact for n >= 3 — below that the latter
           families collapse into the choice-sets *)
        List.iter
          (fun n ->
            let g = Gen.exponential_gadget n in
            let count = Test_support.count Scliques_core.Enumerate.Cs2_pf g ~s:2 in
            check int
              (Printf.sprintf "n=%d: 2^n + n(n-1) + 2n" n)
              ((1 lsl n) + (n * (n - 1)) + (2 * n))
              count)
          [ 3; 4; 5 ]);
    Alcotest.test_case "gadget: each choice-set is a maximal connected 2-clique"
      `Quick (fun () ->
        (* Example 3.4: any set with exactly one of v_i/v'_i plus {w,w'} *)
        let n = 3 in
        let g = Gen.exponential_gadget n in
        let w = 2 * n and w' = (2 * n) + 1 in
        for mask = 0 to (1 lsl n) - 1 do
          let choice =
            List.init n (fun i -> if mask land (1 lsl i) <> 0 then n + i else i)
          in
          let set = NS.of_list (w :: w' :: choice) in
          check bool
            (Printf.sprintf "mask %d" mask)
            true
            (Scliques_core.Verify.is_maximal_connected_s_clique g ~s:2 set)
        done);
  ]

let suites = [ ("gen_random", random_tests); ("gen_fixtures", fixture_tests) ]
