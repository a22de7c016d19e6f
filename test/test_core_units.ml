(* Unit suites for the core library's building blocks: Neighborhood,
   Extend_max, Verify, Brute_force, Stats. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module Nh = Scliques_core.Neighborhood
module Em = Scliques_core.Extend_max
module Rows = Scliques_core.Poly_delay.Rows
module V = Scliques_core.Verify
module Bf = Scliques_core.Brute_force

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let ns = Test_support.ns
let of_l = NS.of_list

let fig1 () = fst (Sgraph.Gen.figure1 ())

(* line 10's carve of [v] from the connected s-clique [c] *)
let carve nh c v =
  let rows = Rows.create nh in
  Rows.load rows c;
  Rows.carve rows v

(* [Neighborhood.root_fingerprint] as first written: the int32 stream
   built in a Buffer and digested at the end *)
let buffered_fingerprint ~s g root =
  let members = NS.add root (Sgraph.Bfs.ball g root ~radius:(Nh.fingerprint_radius ~s)) in
  let buf = Buffer.create 256 in
  let add v = Buffer.add_int32_le buf (Int32.of_int v) in
  NS.iter
    (fun v ->
      add v;
      G.iter_neighbors add g v;
      add (-1))
    members;
  Scoll.Crc32.string (Buffer.contents buf)

let fingerprint_matches_buffered =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"root_fingerprint = buffered digest, every root"
       ~print:Test_differential.print_case
       QCheck2.Gen.(
         oneofl [ `Er; `Sf ] >>= fun family ->
         int_range 1 3 >>= fun s ->
         int_range 2 120 >>= fun n ->
         int_range 0 (3 * n) >>= fun m ->
         int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed))
       (fun (family, n, m, s, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         List.for_all
           (fun r -> Int.equal (buffered_fingerprint ~s g r) (Nh.root_fingerprint ~s g r))
           (List.init (G.n g) Fun.id)))

(* the same property through one partially applied fingerprinter: its
   scratch serves every root, ascending then descending *)
let staged_fingerprint_matches_buffered =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"staged root_fingerprint = buffered, every root"
       ~print:Test_differential.print_case
       QCheck2.Gen.(
         oneofl [ `Er; `Sf ] >>= fun family ->
         int_range 1 3 >>= fun s ->
         int_range 2 120 >>= fun n ->
         int_range 0 (3 * n) >>= fun m ->
         int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed))
       (fun (family, n, m, s, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         let fp = Nh.root_fingerprint ~s g in
         let roots = List.init (G.n g) Fun.id in
         List.for_all
           (fun r -> Int.equal (buffered_fingerprint ~s g r) (fp r))
           (roots @ List.rev roots)))

(* refresh's gate digest: through a cold oracle, a warm one and a shared
   one it equals the standalone digest; at s <= 2 it leaves every ball
   it digested cached *)
let oracle_fingerprint_matches =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"oracle fingerprint = root_fingerprint, s=1..4"
       ~print:Test_differential.print_case
       QCheck2.Gen.(
         oneofl [ `Er; `Sf ] >>= fun family ->
         int_range 1 4 >>= fun s ->
         int_range 2 100 >>= fun n ->
         int_range 0 (3 * n) >>= fun m ->
         int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed))
       (fun (family, n, m, s, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         let want = Array.init (G.n g) (Nh.root_fingerprint ~s g) in
         let agrees what nh =
           G.iter_nodes
             (fun r ->
               if Nh.fingerprint nh r <> want.(r) then
                 QCheck2.Test.fail_reportf "%s oracle, s=%d, root %d" what s r)
             g
         in
         let cold = Nh.create ~s g in
         agrees "cold" cold;
         if s = 2 then begin
           let misses = (Nh.cache_stats cold).Scoll.Lri_cache.misses in
           G.iter_nodes (fun v -> ignore (Nh.ball cold v)) g;
           if (Nh.cache_stats cold).Scoll.Lri_cache.misses <> misses then
             QCheck2.Test.fail_report "the gate's balls were not cached"
         end;
         agrees "warm" cold;
         let warm = Nh.create ~s g in
         G.iter_nodes (fun v -> ignore (Nh.ball warm v)) g;
         agrees "pre-warmed" warm;
         agrees "shared" (Nh.of_shared (Nh.Shared.create ~s g));
         true))

let neighborhood_tests =
  [
    Alcotest.test_case "ball equals Bfs.ball" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~s:2 g in
        G.iter_nodes
          (fun v -> check ns "agree" (Sgraph.Bfs.ball g v ~radius:2) (Nh.ball nh v))
          g);
    Alcotest.test_case "s=1 ball is the neighbor set" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~s:1 g in
        check ns "neighbors of Dan" (of_l [ 1; 2; 4; 5; 6 ]) (Nh.ball nh 3));
    Alcotest.test_case "example 3.1: N-forall and N-exists on figure 1" `Quick (fun () ->
        (* V = {e, h} = ids {4, 7}. Paper: N^{∃,1} = {d,f,g}, N^{∀,1} = {f},
           N^{∃,2} adds {b,c}, N^{∀,2} = {d,f,g}. *)
        let g = fig1 () in
        let v = of_l [ 4; 7 ] in
        let nh1 = Nh.create ~s:1 g in
        let nh2 = Nh.create ~s:2 g in
        check ns "N exists 1" (of_l [ 3; 5; 6 ]) (Nh.adjacent_any nh1 v);
        check ns "N forall 1" (of_l [ 5 ]) (Nh.ball_forall nh1 v);
        check ns "N forall 2" (of_l [ 3; 5; 6 ]) (Nh.ball_forall nh2 v));
    Alcotest.test_case "ball_forall of empty set is all nodes" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~s:2 g in
        check ns "all" (G.nodes g) (Nh.ball_forall nh NS.empty));
    Alcotest.test_case "adjacent_any of empty set is empty" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        check ns "empty" NS.empty (Nh.adjacent_any nh NS.empty));
    Alcotest.test_case "ball_forall excludes the set itself" `Quick (fun () ->
        let nh = Nh.create ~s:3 (fig1 ()) in
        let c = of_l [ 3; 4 ] in
        check bool "disjoint" true (NS.disjoint c (Nh.ball_forall nh c)));
    Alcotest.test_case "within_distance" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        check bool "a-d dist2" true (Nh.within_distance nh 0 3);
        check bool "a-f dist3" false (Nh.within_distance nh 0 5);
        check bool "self" true (Nh.within_distance nh 0 0));
    Alcotest.test_case "cache hits accumulate" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        ignore (Nh.ball nh 0);
        ignore (Nh.ball nh 0);
        ignore (Nh.ball nh 0);
        let stats = Nh.cache_stats nh in
        check int "2 hits" 2 stats.Scoll.Lri_cache.hits;
        check int "1 miss" 1 stats.Scoll.Lri_cache.misses);
    Alcotest.test_case "capacity 0 disables the cache but stays correct" `Quick (fun () ->
        let g = fig1 () in
        let cached = Nh.create ~s:2 g in
        let uncached = Nh.create ~cache_capacity:0 ~s:2 g in
        G.iter_nodes (fun v -> check ns "same ball" (Nh.ball cached v) (Nh.ball uncached v)) g);
    Alcotest.test_case "tiny capacity evicts but stays correct" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~cache_capacity:2 ~s:2 g in
        for _ = 1 to 3 do
          G.iter_nodes
            (fun v -> check ns "ball" (Sgraph.Bfs.ball g v ~radius:2) (Nh.ball nh v))
            g
        done;
        check bool "evictions happened" true
          ((Nh.cache_stats nh).Scoll.Lri_cache.evictions > 0));
    Alcotest.test_case "s < 1 rejected" `Quick (fun () ->
        Alcotest.check_raises "s=0" (Invalid_argument "Neighborhood.create: s must be >= 1")
          (fun () -> ignore (Nh.create ~s:0 (fig1 ()))));
    Alcotest.test_case "warm ball hits allocate nothing" `Quick (fun () ->
        (* 1,000 hits on cached balls may allocate only the measurement's
           own float boxes; the hits are counted as before *)
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 5) ~n:1000 ~avg_degree:8. in
        let nh = Nh.create ~s:2 g in
        for v = 0 to 99 do
          ignore (Nh.ball nh v)
        done;
        let before = Gc.minor_words () in
        for i = 1 to 1000 do
          ignore (Sys.opaque_identity (Nh.ball nh (i mod 100)))
        done;
        let w = Gc.minor_words () -. before in
        if w > 16. then Alcotest.failf "%.0f minor words for 1,000 warm hits" w;
        let stats = Nh.cache_stats nh in
        check int "hits" 1000 stats.Scoll.Lri_cache.hits;
        check int "misses" 100 stats.Scoll.Lri_cache.misses);
    Alcotest.test_case "root_fingerprint known answers" `Quick (fun () ->
        (* digests stored in SCLQIDX1 sidecars: they must never move *)
        let g = fig1 () in
        let er = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 3) ~n:200 ~avg_degree:5. in
        List.iter
          (fun (name, g, s, root, expected) ->
            check int name expected (Nh.root_fingerprint ~s g root))
          [
            ("figure 1, s=1, root 0", g, 1, 0, 1971497302);
            ("figure 1, s=2, root 3", g, 2, 3, 1028468047);
            (* at radius 4 the ball of node 7 is the whole graph, as is
               node 3's at radius 2 *)
            ("figure 1, s=3, root 7", g, 3, 7, 1028468047);
            ("ER n=200, s=2, root 17", er, 2, 17, 2299109874);
          ]);
    fingerprint_matches_buffered;
    staged_fingerprint_matches_buffered;
    oracle_fingerprint_matches;
  ]

let extend_max_tests =
  [
    Alcotest.test_case "result is maximal and contains the seed" `Quick (fun () ->
        let g = fig1 () in
        let nh = Nh.create ~s:2 g in
        G.iter_nodes
          (fun v ->
            let r = Em.in_graph nh (NS.singleton v) in
            check bool "contains seed" true (NS.mem v r);
            check bool "maximal" true (V.is_maximal_connected_s_clique g ~s:2 r))
          g);
    Alcotest.test_case "empty seed starts from node 0" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        let r = Em.in_graph nh NS.empty in
        check bool "has node 0" true (NS.mem 0 r);
        check ns "the a-community" (of_l [ 0; 1; 2; 3 ]) r);
    Alcotest.test_case "empty graph yields empty set" `Quick (fun () ->
        let nh = Nh.create ~s:2 (G.empty 0) in
        check ns "empty" NS.empty (Em.in_graph nh NS.empty));
    Alcotest.test_case "isolated node is its own maximal set" `Quick (fun () ->
        let nh = Nh.create ~s:2 (G.empty 3) in
        check ns "singleton" (of_l [ 1 ]) (Em.in_graph nh (NS.singleton 1)));
    Alcotest.test_case "example 4.1 shape: extending {e} inside G[C ∪ {e}]" `Quick
      (fun () ->
        (* paper: C = {a,b,c,d}, v = e; ExtendMax({e}, G[C∪{e}], 2) = {b,c,d,e} *)
        let nh = Nh.create ~s:2 (fig1 ()) in
        check ns "carved set" (of_l [ 1; 2; 3; 4 ]) (carve nh (of_l [ 0; 1; 2; 3 ]) 4));
    Alcotest.test_case "example 4.1 continued: re-maximizing in G" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        check ns "{b,c,d,e} grows to {b,c,d,e,f,g}" (of_l [ 1; 2; 3; 4; 5; 6 ])
          (Em.in_graph nh (of_l [ 1; 2; 3; 4 ])));
    Alcotest.test_case "carve restricts membership, not distances" `Quick (fun () ->
        (* C = path 0-1-2-3, with 4 making d(0,3) = 2; 5 hangs off 3 and
           4. d(5,0) = 2 through 4, outside C ∪ {5}, so 0 is in 5's row,
           but the carve cannot reach 0: inside C ∪ {5}, 0 touches only
           1, at distance 3 from 5 *)
        let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 3); (5, 3); (5, 4) ] in
        let nh = Nh.create ~s:2 g in
        let rows = Rows.create nh in
        Rows.load rows (of_l [ 0; 1; 2; 3 ]);
        check ns "row: C ∩ N^2(5)" (of_l [ 0; 2; 3 ]) (Rows.row rows 5);
        check ns "no adjacency inside C ∪ {v}" (of_l [ 2; 3; 5 ]) (Rows.carve rows 5);
        (* path 0-1-2 plus shortcut 0-3-2: from C = {1, 2}, node 0
           absorbs 2 through 1 *)
        let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (0, 3); (3, 2) ] in
        check ns "absorbs via 1" (of_l [ 0; 1; 2 ]) (carve (Nh.create ~s:2 g) (of_l [ 1; 2 ]) 0));
    Alcotest.test_case "carve measures distances in the whole graph" `Quick (fun () ->
        (* cycle 0-1-2-3-4-0: inside C ∪ {0} = {0,1,2,3} the induced path
           0-1-2-3 puts 3 at distance 3 from 0, but the ambient witness
           0-4-3 keeps d_G(0,3) = 2, so the carve must keep 3 — exactly
           the situation where the Fig. 4 carve loses results if it
           (wrongly) measures distances in the induced subgraph *)
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
        let nh = Nh.create ~s:2 g in
        check ns "keeps the far endpoint" (of_l [ 0; 1; 2; 3 ])
          (carve nh (of_l [ 1; 2; 3 ]) 0));
    Alcotest.test_case "carve keeps witnesses outside C ∪ {v} (ER repro)" `Quick
      (fun () ->
        (* the graph on which a carve measuring distances inside
           G[C ∪ {v}] lost the result {0,3,4,8,9}: from C =
           {0,1,2,3,8,9}, node 4 reaches 0 and 9 only through 6 and 12,
           outside C ∪ {4} *)
        let g = Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create 120869) ~n:14 ~m:16 in
        let nh = Nh.create ~s:2 g in
        check ns "carved set is the lost result" (of_l [ 0; 3; 4; 8; 9 ])
          (carve nh (of_l [ 0; 1; 2; 3; 8; 9 ]) 4);
        let results =
          Scliques_core.Enumerate.sorted_results Scliques_core.Enumerate.Poly_delay g ~s:2
        in
        check int "11 maximal sets" 11 (List.length results);
        check bool "PD finds it" true
          (List.exists (NS.equal (of_l [ 0; 3; 4; 8; 9 ])) results));
    Alcotest.test_case "carve validates the node" `Quick (fun () ->
        let nh = Nh.create ~s:2 (fig1 ()) in
        let n = G.n (fig1 ()) in
        let rows = Rows.create nh in
        Rows.load rows (of_l [ 0; 1; 2; 3 ]);
        let refused what v =
          Alcotest.check_raises what
            (Invalid_argument "Poly_delay.Rows.carve: node is not a neighbor of the set")
            (fun () -> ignore (Rows.carve rows v))
        in
        refused "member" 1;
        refused "past the last node" n;
        refused "negative" (-1);
        (* Hal (7) is within distance 2 of Dan (3) but adjacent to no
           member *)
        check bool "7 is no neighbor" false (NS.mem 7 (Rows.neighbors rows));
        refused "not adjacent" 7);
    Alcotest.test_case "random: in_graph always produces maximal sets" `Quick (fun () ->
        let rng = Scoll.Rng.create 77 in
        for _ = 1 to 20 do
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n:12 ~m:18 in
          let s = 1 + Scoll.Rng.int rng 3 in
          let nh = Nh.create ~s g in
          G.iter_nodes
            (fun v ->
              let r = Em.in_graph nh (NS.singleton v) in
              check bool "maximal connected s-clique" true
                (V.is_maximal_connected_s_clique g ~s r))
            g
        done);
  ]

let verify_tests =
  [
    Alcotest.test_case "is_clique" `Quick (fun () ->
        let g = fig1 () in
        check bool "abc" true (V.is_clique g (of_l [ 0; 1; 2 ]));
        check bool "abcd not" false (V.is_clique g (of_l [ 0; 1; 2; 3 ]));
        check bool "empty" true (V.is_clique g NS.empty);
        check bool "singleton" true (V.is_clique g (of_l [ 5 ])));
    Alcotest.test_case "example 3.2: s-clique but not 2-clique" `Quick (fun () ->
        let g = fig1 () in
        let c = of_l [ 0; 1; 2; 3; 4; 5; 6 ] in
        check bool "3-clique" true (V.is_s_clique g ~s:3 c);
        check bool "not 2-clique (dist a f = 3)" false (V.is_s_clique g ~s:2 c));
    Alcotest.test_case "example 3.2: {a,d} 2-clique but unconnected" `Quick (fun () ->
        let g = fig1 () in
        let c = of_l [ 0; 3 ] in
        check bool "2-clique" true (V.is_s_clique g ~s:2 c);
        check bool "not connected" false (V.is_connected_s_clique g ~s:2 c));
    Alcotest.test_case "distances leave the set (the s-clique subtlety)" `Quick (fun () ->
        (* 4-cycle: {0, 2} is a 2-clique via nodes outside the pair *)
        let g = Sgraph.Gen.cycle 4 in
        check bool "2-clique through outside" true (V.is_s_clique g ~s:2 (of_l [ 0; 2 ])));
    Alcotest.test_case "nodes in different components are never s-close" `Quick (fun () ->
        let g = G.empty 3 in
        check bool "not an s-clique" false (V.is_s_clique g ~s:5 (of_l [ 0; 1 ])));
    Alcotest.test_case "maximality on figure 1 ground truth" `Quick (fun () ->
        let g = fig1 () in
        check bool "{a,b,c,d} maximal" true
          (V.is_maximal_connected_s_clique g ~s:2 (of_l [ 0; 1; 2; 3 ]));
        check bool "{a,b,c} not maximal at s=2" false
          (V.is_maximal_connected_s_clique g ~s:2 (of_l [ 0; 1; 2 ]));
        check bool "empty not maximal" false (V.is_maximal_connected_s_clique g ~s:2 NS.empty));
    Alcotest.test_case "extension_candidates" `Quick (fun () ->
        let g = fig1 () in
        check ns "abc extends by d" (of_l [ 3 ]) (V.extension_candidates g ~s:2 (of_l [ 0; 1; 2 ]));
        check ns "maximal set has none" NS.empty
          (V.extension_candidates g ~s:2 (of_l [ 0; 1; 2; 3 ])));
    Alcotest.test_case "certify accepts the truth" `Quick (fun () ->
        let g = fig1 () in
        let truth = [ of_l [ 0; 1; 2; 3 ]; of_l [ 1; 2; 3; 4; 5; 6 ]; of_l [ 3; 4; 5; 6; 7 ] ] in
        check bool "ok" true (Result.is_ok (V.certify g ~s:2 truth)));
    Alcotest.test_case "certify rejects duplicates" `Quick (fun () ->
        let g = fig1 () in
        let c = of_l [ 0; 1; 2; 3 ] in
        check bool "dup" true (Result.is_error (V.certify g ~s:2 [ c; c ])));
    Alcotest.test_case "certify rejects non-maximal" `Quick (fun () ->
        let g = fig1 () in
        check bool "non-maximal" true
          (Result.is_error (V.certify g ~s:2 [ of_l [ 0; 1; 2 ] ])));
    Alcotest.test_case "certify rejects unconnected" `Quick (fun () ->
        let g = fig1 () in
        check bool "unconnected" true (Result.is_error (V.certify g ~s:2 [ of_l [ 0; 3 ] ])));
  ]

let brute_force_tests =
  [
    Alcotest.test_case "figure 1 counts for s=1..4" `Quick (fun () ->
        let g = fig1 () in
        List.iter
          (fun (s, expected) ->
            check int
              (Printf.sprintf "s=%d" s)
              expected
              (List.length (Bf.maximal_connected_s_cliques g ~s)))
          [ (1, 6); (2, 3); (3, 2); (4, 1) ]);
    Alcotest.test_case "complete graph has one maximal set" `Quick (fun () ->
        check Test_support.ns_list "K5" [ NS.range 0 5 ]
          (Bf.maximal_connected_s_cliques (Sgraph.Gen.complete 5) ~s:1));
    Alcotest.test_case "edgeless graph: singletons" `Quick (fun () ->
        check Test_support.ns_list "three singletons"
          [ of_l [ 0 ]; of_l [ 1 ]; of_l [ 2 ] ]
          (Bf.maximal_connected_s_cliques (G.empty 3) ~s:2));
    Alcotest.test_case "path at s=2: overlapping triples" `Quick (fun () ->
        check Test_support.ns_list "triples"
          [ of_l [ 0; 1; 2 ]; of_l [ 1; 2; 3 ]; of_l [ 2; 3; 4 ] ]
          (Bf.maximal_connected_s_cliques (Sgraph.Gen.path 5) ~s:2));
    Alcotest.test_case "connected_s_cliques includes non-maximal" `Quick (fun () ->
        let all = Bf.connected_s_cliques (Sgraph.Gen.path 3) ~s:2 in
        (* {0},{1},{2},{0,1},{1,2},{0,1,2} and {0,2}? 0-2 at distance 2 but
           induced {0,2} unconnected -> excluded: 6 sets *)
        check int "6 connected 2-cliques" 6 (List.length all));
    Alcotest.test_case "maximal_s_cliques can be unconnected" `Quick (fun () ->
        (* 6-cycle: {0,2,4} is pairwise at distance 2 but induces no edge,
           and no further node fits — a maximal unconnected 2-clique *)
        let c6 = Sgraph.Gen.cycle 6 in
        let all = Bf.maximal_s_cliques c6 ~s:2 in
        check bool "contains {0,2,4}" true (List.exists (NS.equal (of_l [ 0; 2; 4 ])) all);
        check bool "it is not connected" false
          (Sgraph.Bfs.is_connected_subset c6 (of_l [ 0; 2; 4 ])));
    Alcotest.test_case "oversized graph rejected" `Quick (fun () ->
        match Bf.maximal_connected_s_cliques (G.empty 23) ~s:1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "results are sorted and duplicate-free" `Quick (fun () ->
        let g = Test_support.random_graph 42 ~n:9 ~m:14 in
        let r = Bf.maximal_connected_s_cliques g ~s:2 in
        let rec sorted = function
          | a :: (b :: _ as rest) -> NS.compare a b < 0 && sorted rest
          | _ -> true
        in
        check bool "strictly sorted" true (sorted r));
  ]

let stats_tests =
  let module S = Scliques_core.Stats in
  let feq = Alcotest.float 1e-9 in
  [
    Alcotest.test_case "empty" `Quick (fun () ->
        let s = S.of_results [] in
        check int "count" 0 s.S.count;
        check feq "avg" 0. s.S.avg_size);
    Alcotest.test_case "of_sizes" `Quick (fun () ->
        let s = S.of_sizes [ 2; 4; 6 ] in
        check int "count" 3 s.S.count;
        check int "min" 2 s.S.min_size;
        check int "max" 6 s.S.max_size;
        check feq "avg" 4. s.S.avg_size;
        check int "total" 12 s.S.total_nodes);
    Alcotest.test_case "of_results uses cardinals" `Quick (fun () ->
        let s = S.of_results [ of_l [ 1; 2 ]; of_l [ 3; 4; 5 ] ] in
        check int "max" 3 s.S.max_size;
        check feq "avg" 2.5 s.S.avg_size);
    Alcotest.test_case "sample matches direct enumeration" `Quick (fun () ->
        let g = fig1 () in
        let s = S.sample Scliques_core.Enumerate.Cs2_p g ~s:2 100 in
        check int "3 results available" 3 s.S.count;
        check int "largest is 6" 6 s.S.max_size);
    Alcotest.test_case "sample truncates at n" `Quick (fun () ->
        let g = fig1 () in
        let s = S.sample Scliques_core.Enumerate.Cs2_p g ~s:1 2 in
        check int "only 2" 2 s.S.count);
  ]

let result_io_tests =
  let module R = Scliques_core.Result_io in
  [
    Alcotest.test_case "round trip" `Quick (fun () ->
        let results = [ of_l [ 3; 1; 2 ]; of_l [ 7 ]; of_l [ 0; 9 ] ] in
        check Test_support.ns_list "same sets" results
          (R.parse_string ~n:10 (R.to_string results)));
    Alcotest.test_case "comments and blank lines ignored" `Quick (fun () ->
        check Test_support.ns_list "one set" [ of_l [ 1; 2 ] ]
          (R.parse_string ~n:3 "# header\n\n1 2\n"));
    Alcotest.test_case "empty input" `Quick (fun () ->
        check Test_support.ns_list "none" [] (R.parse_string ~n:0 ""));
    Alcotest.test_case "duplicate member rejected with line number" `Quick (fun () ->
        Alcotest.check_raises "dup" (Failure "results line 2: duplicate node in set")
          (fun () -> ignore (R.parse_string ~n:4 "1 2\n3 3\n")));
    Alcotest.test_case "bad token rejected" `Quick (fun () ->
        Alcotest.check_raises "token"
          (Failure "results line 1: expected a node id, got \"x\"") (fun () ->
            ignore (R.parse_string ~n:2 "1 x\n")));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let g = fst (Sgraph.Gen.figure1 ()) in
        let results = Scliques_core.Enumerate.sorted_results Scliques_core.Enumerate.Cs2_p g ~s:2 in
        let path = Filename.temp_file "scliques" ".results" in
        R.save results path;
        let back = R.load ~n:(Sgraph.Graph.n g) path in
        Sys.remove path;
        check Test_support.ns_list "same" results back;
        check bool "still certifies" true
          (Result.is_ok (Scliques_core.Verify.certify g ~s:2 back)));
    Alcotest.test_case "id outside the graph rejected with line number" `Quick (fun () ->
        Alcotest.check_raises "n"
          (Failure "results line 2: node id \"5\" out of range (n=5)") (fun () ->
            ignore (R.parse_string ~n:5 "0 4\n1 5\n")));
  ]

let suites =
  [
    ("neighborhood", neighborhood_tests);
    ("extend_max", extend_max_tests);
    ("verify", verify_tests);
    ("brute_force", brute_force_tests);
    ("stats", stats_tests);
    ("result_io", result_io_tests);
  ]
