(* Closed-form ground truths on structured graph families, checked for
   every algorithm — strong regression anchors beyond random testing.

   Derivations (for n > 2s + 1 where relevant):
   - cycle C_n: a connected s-clique is an arc of consecutive nodes; an
     arc of k nodes has internal diameter k - 1, so maximal arcs have
     exactly s + 1 nodes and there are n of them (one per start).
   - path P_n: same arcs without wraparound: n - s of them.
   - star S_n (s >= 2): every pair of leaves is at distance 2 through the
     hub, so the whole star is the unique maximal set.
   - complete multipartite (diameter 2, s = 2): the whole node set.
   - complete bipartite (diameter 2, s >= 2): the whole node set. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate

let check = Alcotest.check
let int = Alcotest.int

let all_sizes results = List.sort_uniq compare (List.map NS.cardinal results)

let for_each_algorithm name f =
  List.map
    (fun alg ->
      Alcotest.test_case (E.name alg ^ ": " ^ name) `Quick (fun () -> f alg))
    Test_support.real_algorithms

let cycle_tests =
  for_each_algorithm "cycles: n arcs of s+1 nodes" (fun alg ->
      List.iter
        (fun (n, s) ->
          let results = E.sorted_results alg (Sgraph.Gen.cycle n) ~s in
          check int (Printf.sprintf "count C_%d s=%d" n s) n (List.length results);
          check (Alcotest.list int)
            (Printf.sprintf "sizes C_%d s=%d" n s)
            [ s + 1 ] (all_sizes results))
        [ (6, 1); (8, 2); (9, 2); (10, 3); (12, 4) ])

let path_tests =
  for_each_algorithm "paths: n-s arcs of s+1 nodes" (fun alg ->
      List.iter
        (fun (n, s) ->
          let results = E.sorted_results alg (Sgraph.Gen.path n) ~s in
          check int (Printf.sprintf "count P_%d s=%d" n s) (n - s) (List.length results);
          check (Alcotest.list int)
            (Printf.sprintf "sizes P_%d s=%d" n s)
            [ s + 1 ] (all_sizes results))
        [ (5, 1); (7, 2); (9, 3) ])

let star_tests =
  for_each_algorithm "stars collapse to one set at s>=2" (fun alg ->
      List.iter
        (fun (n, s) ->
          check Test_support.ns_list
            (Printf.sprintf "S_%d s=%d" n s)
            [ NS.range 0 n ]
            (E.sorted_results alg (Sgraph.Gen.star n) ~s))
        [ (4, 2); (9, 2); (9, 3) ])

let diameter2_tests =
  for_each_algorithm "diameter-2 graphs collapse at s=2" (fun alg ->
      List.iter
        (fun (name, g) ->
          check Test_support.ns_list name [ G.nodes g ] (E.sorted_results alg g ~s:2))
        [ ("K_3x3", Sgraph.Gen.complete_bipartite 3 3);
          ("K_2,5", Sgraph.Gen.complete_bipartite 2 5);
          ("moon-moser 3x3", Sgraph.Gen.complete_multipartite ~parts:3 ~part_size:3);
          ("K_6", Sgraph.Gen.complete 6) ])

let oracle_fixture_tests =
  for_each_algorithm "petersen and grid match the oracle" (fun alg ->
      List.iter
        (fun (name, g, s) ->
          check Test_support.ns_list
            (Printf.sprintf "%s s=%d" name s)
            (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s)
            (E.sorted_results alg g ~s))
        [ ("petersen", Sgraph.Gen.petersen (), 1);
          ("petersen", Sgraph.Gen.petersen (), 2);
          ("grid 3x4", Sgraph.Gen.grid 3 4, 2);
          ("grid 2x5", Sgraph.Gen.grid 2 5, 3) ])

(* the paper's observation that C_n arcs overlap like a sliding window:
   consecutive maximal sets share exactly s nodes *)
let overlap_test =
  [
    Alcotest.test_case "cycle arcs slide by one" `Quick (fun () ->
        let n = 9 and s = 2 in
        let results = E.sorted_results E.Cs2_pf (Sgraph.Gen.cycle n) ~s in
        List.iter
          (fun c ->
            let hits =
              List.length (List.filter (fun c' -> NS.inter_cardinal c c' = s) results)
            in
            check int "two sliding neighbors" 2 hits)
          results);
  ]

let suites =
  [
    ("family_cycles", cycle_tests);
    ("family_paths", path_tests);
    ("family_stars", star_tests);
    ("family_diameter2", diameter2_tests);
    ("family_fixtures", oracle_fixture_tests @ overlap_test);
  ]
