(* Shared helpers for the test suites. *)

module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate

let ns = Alcotest.testable NS.pp NS.equal

let ns_list = Alcotest.(list ns)

let set_of_ints = NS.of_list

let sorted_sets l = List.sort NS.compare l

(* deterministic random graph for property tests *)
let random_graph seed ~n ~m = Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create seed) ~n ~m

let check_sets msg expected actual =
  Alcotest.check ns_list msg (sorted_sets expected) (sorted_sets actual)

(* QCheck generator producing (graph, s) pairs small enough for the
   brute-force oracle. Shrinks toward fewer nodes/edges. *)
let arb_small_graph_and_s =
  let open QCheck2.Gen in
  let gen =
    int_range 1 10 >>= fun n ->
    int_range 0 (max 1 (n * (n - 1) / 2)) >>= fun m ->
    int_range 1 3 >>= fun s ->
    int_range 0 1_000_000 >>= fun seed ->
    return (n, min m (n * (n - 1) / 2), s, seed)
  in
  gen

let graph_of_params (n, m, _, seed) = random_graph seed ~n ~m

let oracle g s = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s

let algorithm_results alg g s = E.sorted_results alg g ~s

(* every result of [E.run], in delivery order *)
let run_results ?obs alg g ~s =
  let acc = ref [] in
  let (_ : E.run_report) = E.run ?obs alg g ~s (fun c -> acc := c :: !acc) in
  List.rev !acc

let count ?min_size alg g ~s = (E.run ?min_size alg g ~s ignore).E.emitted

(* All real (non-oracle) algorithm variants. *)
let real_algorithms = [ E.Poly_delay; E.Cs1; E.Cs2; E.Cs2_f; E.Cs2_p; E.Cs2_pf ]
