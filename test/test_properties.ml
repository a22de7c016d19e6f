(* QCheck property suites: every algorithm against the brute-force oracle
   on random graphs, plus structural invariants of the problem itself. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module V = Scliques_core.Verify

(* (n, m, s, seed) quadruples kept small enough for the oracle *)
let gen_params =
  let open QCheck2.Gen in
  int_range 1 10 >>= fun n ->
  int_range 0 (n * (n - 1) / 2) >>= fun m ->
  int_range 1 3 >>= fun s ->
  int_range 0 1_000_000 >>= fun seed -> return (n, m, s, seed)

let print_params (n, m, s, seed) = Printf.sprintf "n=%d m=%d s=%d seed=%d" n m s seed

let graph_of (n, m, _, seed) =
  Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create seed) ~n ~m

let prop ?(count = 150) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_params gen_params f)

let oracle_equal alg params =
  let g = graph_of params in
  let _, _, s, _ = params in
  let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
  let actual = E.sorted_results alg g ~s in
  List.length expected = List.length actual && List.for_all2 NS.equal expected actual

let oracle_tests =
  List.map
    (fun alg -> prop (E.name alg ^ " equals the brute-force oracle") (oracle_equal alg))
    Test_support.real_algorithms

let invariant_tests =
  [
    prop "every emitted set certifies as sound output" (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        Result.is_ok (V.certify g ~s (E.sorted_results E.Cs2_pf g ~s)));
    prop "results cover every node" (fun params ->
        (* each node belongs to at least one maximal connected s-clique
           (its singleton extends to one) *)
        let g = graph_of params in
        let _, _, s, _ = params in
        let covered =
          List.fold_left NS.union NS.empty (E.sorted_results E.Poly_delay g ~s)
        in
        NS.equal covered (G.nodes g));
    prop "every maximal clique is inside some maximal connected s-clique"
      (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        let s_results = E.sorted_results E.Cs2_p g ~s in
        List.for_all
          (fun clique -> List.exists (NS.subset clique) s_results)
          (Scliques_core.Bron_kerbosch.maximal_cliques g));
    prop "monotone in s: each result is inside some (s+1)-result" (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        let now = E.sorted_results E.Cs2_p g ~s in
        let larger = E.sorted_results E.Cs2_p g ~s:(s + 1) in
        List.for_all (fun c -> List.exists (NS.subset c) larger) now);
    prop "result count >= number of connected components with a node" (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        Test_support.count E.Cs2_pf g ~s >= Sgraph.Components.count g);
    prop "s >= diameter collapses each component to one result" (fun params ->
        let g = graph_of params in
        let _, _, _, _ = params in
        let comps = Sgraph.Components.components g in
        let s = max 1 (G.n g) in
        let results = E.sorted_results E.Cs2_p g ~s in
        List.length results = List.length comps
        && List.for_all2 NS.equal (List.sort NS.compare comps) results);
    prop "connected s-cliques refine the power-graph reduction" (fun params ->
        (* every maximal connected s-clique is contained in some maximal
           (unconnected) s-clique of Remark 1 *)
        let g = graph_of params in
        let _, _, s, _ = params in
        let unconnected = Scliques_core.Bron_kerbosch.maximal_s_cliques_via_power g ~s in
        List.for_all
          (fun c -> List.exists (NS.subset c) unconnected)
          (E.sorted_results E.Cs2_pf g ~s));
    prop "power-graph reduction agrees with its oracle" (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        let expected = Scliques_core.Brute_force.maximal_s_cliques g ~s in
        let actual =
          List.sort NS.compare
            (Scliques_core.Bron_kerbosch.maximal_s_cliques_via_power g ~s)
        in
        List.length expected = List.length actual && List.for_all2 NS.equal expected actual);
    prop "min_size pruning loses exactly the small sets (all variants)"
      ~count:60
      (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        let k = 3 in
        List.for_all
          (fun alg ->
            let pruned = E.sorted_results ~min_size:k alg g ~s in
            let filtered =
              List.filter (fun c -> NS.cardinal c >= k) (E.sorted_results alg g ~s)
            in
            List.length pruned = List.length filtered
            && List.for_all2 NS.equal pruned filtered)
          Test_support.real_algorithms);
    prop "largest-first PolyDelayEnum enumerates the same family" (fun params ->
        let g = graph_of params in
        let _, _, s, _ = params in
        let nh = Scliques_core.Neighborhood.create ~s g in
        let acc = ref [] in
        Scliques_core.Poly_delay.iter ~queue_mode:Scliques_core.Poly_delay.Largest_first
          nh (fun c -> acc := c :: !acc);
        let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
        let actual = List.sort NS.compare !acc in
        List.length expected = List.length actual && List.for_all2 NS.equal expected actual);
    prop "denser graphs on community structure also agree" ~count:60 (fun (n, _, s, seed) ->
        (* a second graph family: planted partition, denser than gnm *)
        let n = max 4 n in
        let g =
          Sgraph.Gen.planted_partition (Scoll.Rng.create seed) ~n ~communities:2
            ~p_in:0.7 ~p_out:0.15
        in
        let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
        List.for_all
          (fun alg ->
            let actual = E.sorted_results alg g ~s in
            List.length expected = List.length actual
            && List.for_all2 NS.equal expected actual)
          Test_support.real_algorithms);
  ]

(* the oracle comparison again over structurally different graph families:
   trees (bridge-heavy), Watts-Strogatz (local + shortcuts), and the
   paper's exponential gadget family *)
let family_tests =
  let prop_family name build =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name
         ~print:(fun (k, s, seed) -> Printf.sprintf "k=%d s=%d seed=%d" k s seed)
         QCheck2.Gen.(
           int_range 1 6 >>= fun k ->
           int_range 1 3 >>= fun s ->
           int_range 0 1_000_000 >>= fun seed -> return (k, s, seed))
         (fun (k, s, seed) ->
           let g = build k seed in
           let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
           List.for_all
             (fun alg ->
               let actual = E.sorted_results alg g ~s in
               List.length expected = List.length actual
               && List.for_all2 NS.equal expected actual)
             Test_support.real_algorithms))
  in
  [
    prop_family "all algorithms agree on random trees" (fun k seed ->
        Sgraph.Gen.random_tree (Scoll.Rng.create seed) ~n:(3 + k));
    prop_family "all algorithms agree on Watts-Strogatz rings" (fun k seed ->
        Sgraph.Gen.watts_strogatz (Scoll.Rng.create seed) ~n:(5 + k) ~k:1 ~beta:0.3);
    prop_family "all algorithms agree on the exponential gadget" (fun k _ ->
        Sgraph.Gen.exponential_gadget (1 + (k mod 2)));
  ]

let suites =
  [
    ("oracle_properties", oracle_tests);
    ("family_properties", family_tests);
    ("invariant_properties", invariant_tests);
  ]
