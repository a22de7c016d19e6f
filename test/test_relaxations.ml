(* The §2 clique relaxations (s-clubs, quasi-cliques) and the footnote-1
   degeneracy-root variant of CsCliques2. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module Sc = Scliques_core.S_club
module Qc = Scliques_core.Quasi_clique
module E = Scliques_core.Enumerate

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let of_l = NS.of_list
let sorted l = List.sort NS.compare l

let s_club_tests =
  [
    Alcotest.test_case "basic club checks on the star" `Quick (fun () ->
        let g = Sgraph.Gen.star 5 in
        check bool "whole star is a 2-club" true (Sc.is_s_club g ~s:2 (NS.range 0 5));
        check bool "leaves alone are not" false (Sc.is_s_club g ~s:2 (of_l [ 1; 2; 3 ]));
        check bool "empty" true (Sc.is_s_club g ~s:2 NS.empty);
        check bool "singleton" true (Sc.is_s_club g ~s:2 (of_l [ 2 ])));
    Alcotest.test_case "club requires the path INSIDE the set" `Quick (fun () ->
        (* 4-cycle: {0,2} is a 2-clique (via 1 or 3) but not a 2-club *)
        let g = Sgraph.Gen.cycle 4 in
        check bool "2-clique" true (Scliques_core.Verify.is_s_clique g ~s:2 (of_l [ 0; 2 ]));
        check bool "not a 2-club" false (Sc.is_s_club g ~s:2 (of_l [ 0; 2 ])));
    Alcotest.test_case "non-hereditary witness" `Quick (fun () ->
        let g, club, subset = Sc.non_hereditary_witness () in
        check bool "club" true (Sc.is_s_club g ~s:2 club);
        check bool "subset not a club" false (Sc.is_s_club g ~s:2 subset);
        check bool "strict subset" true
          (NS.subset subset club && not (NS.equal subset club)));
    Alcotest.test_case "every s-club is an s-clique" `Quick (fun () ->
        let rng = Scoll.Rng.create 61 in
        for _ = 1 to 15 do
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n:9 ~m:(6 + Scoll.Rng.int rng 14) in
          List.iter
            (fun club ->
              check bool "s-clique too" true
                (Scliques_core.Verify.is_connected_s_clique g ~s:2 club))
            (Sc.maximal_s_clubs g ~s:2)
        done);
    Alcotest.test_case "maximal clubs on figure 1" `Quick (fun () ->
        (* communities of the running example, as clubs *)
        let g = fst (Sgraph.Gen.figure1 ()) in
        let clubs = Sc.maximal_s_clubs g ~s:2 in
        check bool "{a,b,c,d} is one" true
          (List.exists (NS.equal (of_l [ 0; 1; 2; 3 ])) clubs);
        List.iter
          (fun c -> check bool "is club" true (Sc.is_s_club g ~s:2 c))
          clubs);
    Alcotest.test_case "every maximal club is inside some maximal connected s-clique"
      `Quick (fun () ->
        let rng = Scoll.Rng.create 62 in
        for _ = 1 to 10 do
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n:8 ~m:(5 + Scoll.Rng.int rng 12) in
          let s_cliques = E.sorted_results E.Cs2_pf g ~s:2 in
          List.iter
            (fun club ->
              check bool "covered" true
                (List.exists (NS.subset club) s_cliques))
            (Sc.maximal_s_clubs g ~s:2)
        done);
    Alcotest.test_case "on trees the notions coincide ([28])" `Quick (fun () ->
        let rng = Scoll.Rng.create 63 in
        for _ = 1 to 15 do
          let g = Sgraph.Gen.random_tree rng ~n:(5 + Scoll.Rng.int rng 8) in
          let s = 2 + Scoll.Rng.int rng 2 in
          check Test_support.ns_list "same families"
            (Sc.maximal_s_clubs g ~s)
            (E.sorted_results E.Cs2_pf g ~s)
        done);
    Alcotest.test_case "is_maximal_s_club needs more than 1-extension" `Quick (fun () ->
        (* path of 5 at s=2: {0,1,2} is a maximal club; {1,2,3} likewise;
           but {0,1} is non-maximal even though it is a club *)
        let g = Sgraph.Gen.path 5 in
        check bool "triple maximal" true (Sc.is_maximal_s_club g ~s:2 (of_l [ 0; 1; 2 ]));
        check bool "pair not maximal" false (Sc.is_maximal_s_club g ~s:2 (of_l [ 0; 1 ]));
        check bool "non-club is not maximal" false
          (Sc.is_maximal_s_club g ~s:2 (of_l [ 0; 2; 4 ])));
    Alcotest.test_case "maximal_s_clubs matches is_maximal_s_club" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 7 in
        let clubs = Sc.maximal_s_clubs g ~s:2 in
        List.iter
          (fun c -> check bool (NS.to_string c) true (Sc.is_maximal_s_club g ~s:2 c))
          clubs);
    Alcotest.test_case "size cap enforced" `Quick (fun () ->
        match Sc.maximal_s_clubs (G.empty 17) ~s:2 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let quasi_clique_tests =
  [
    Alcotest.test_case "clique is a 1-quasi-clique" `Quick (fun () ->
        let g = Sgraph.Gen.complete 5 in
        check bool "gamma=1" true (Qc.is_gamma_quasi_clique g ~gamma:1. (NS.range 0 5)));
    Alcotest.test_case "internal degrees" `Quick (fun () ->
        let g = fst (Sgraph.Gen.figure1 ()) in
        (* inside {a,b,c,d}: a has 2 (b,c), d has 2 (b,c) *)
        let u = of_l [ 0; 1; 2; 3 ] in
        check int "a" 2 (Qc.internal_degree g u 0);
        check int "b" 3 (Qc.internal_degree g u 1);
        check int "min" 2 (Qc.min_internal_degree g u));
    Alcotest.test_case "gamma threshold behaviour" `Quick (fun () ->
        let g = fst (Sgraph.Gen.figure1 ()) in
        let u = of_l [ 0; 1; 2; 3 ] in
        (* min internal degree 2 of possible 3: passes 2/3, fails above *)
        check bool "gamma 2/3" true (Qc.is_gamma_quasi_clique g ~gamma:(2. /. 3.) u);
        check bool "gamma 0.9" false (Qc.is_gamma_quasi_clique g ~gamma:0.9 u));
    Alcotest.test_case "bad gamma rejected" `Quick (fun () ->
        Alcotest.check_raises "gamma 2"
          (Invalid_argument "Quasi_clique.is_gamma_quasi_clique: gamma outside [0,1]")
          (fun () ->
            ignore (Qc.is_gamma_quasi_clique (Sgraph.Gen.complete 3) ~gamma:2. (NS.range 0 3))));
    Alcotest.test_case "Jiang-Pei diameter-2 property quoted in §2" `Quick (fun () ->
        (* gamma in [1/2, (k-2)/(k-1)] forces induced diameter <= 2 *)
        let rng = Scoll.Rng.create 64 in
        for _ = 1 to 30 do
          let n = 4 + Scoll.Rng.int rng 6 in
          let g =
            Sgraph.Gen.erdos_renyi_gnm rng ~n
              ~m:(Scoll.Rng.int rng ((n * (n - 1) / 2) + 1))
          in
          let u = G.nodes g in
          let k = NS.cardinal u in
          let gamma = 0.5 in
          if
            float_of_int (k - 2) /. float_of_int (k - 1) >= gamma
            && Qc.is_gamma_quasi_clique g ~gamma u
          then
            check bool "diameter <= 2" true (Qc.induced_diameter g u <= 2)
        done);
    Alcotest.test_case "the §2 subtlety: s-cliques are not quasi-cliques" `Quick
      (fun () ->
        (* 4-cycle's {0,2}: a 2-clique whose induced graph has NO edges, so
           it fails every gamma > 0 — quasi-clique machinery cannot see it *)
        let g = Sgraph.Gen.cycle 4 in
        let u = of_l [ 0; 2 ] in
        check bool "2-clique" true (Scliques_core.Verify.is_s_clique g ~s:2 u);
        check bool "not even a 0.5-quasi-clique" false
          (Qc.is_gamma_quasi_clique g ~gamma:0.5 u);
        check bool "induced diameter infinite" true (Qc.induced_diameter g u = max_int));
    Alcotest.test_case "induced_diameter basics" `Quick (fun () ->
        let g = Sgraph.Gen.path 5 in
        check int "whole path" 4 (Qc.induced_diameter g (NS.range 0 5));
        check int "singleton" 0 (Qc.induced_diameter g (of_l [ 3 ]));
        check int "empty" 0 (Qc.induced_diameter g NS.empty));
  ]

let degeneracy_root_tests =
  (* every root's branch, in a degeneracy order of G^s *)
  let collect ?(pivot = false) ?(feasibility = false) ?min_size g s =
    let module Cs2 = Scliques_core.Cs_cliques2 in
    let nh = Scliques_core.Neighborhood.create ~s g in
    let acc = ref [] in
    let pivot = if pivot then Some Cs2.Min_uncovered else None in
    Cs2.run_degeneracy
      (Cs2.make_runner ~rule:(Cs2.Cs2 { pivot; feasibility }) ?min_size nh (fun c ->
           acc := c :: !acc));
    sorted !acc
  in
  [
    Alcotest.test_case "matches ascending on figure 1" `Quick (fun () ->
        let g = fst (Sgraph.Gen.figure1 ()) in
        List.iter
          (fun s ->
            check Test_support.ns_list
              (Printf.sprintf "s=%d" s)
              (E.sorted_results E.Cs2 g ~s)
              (collect g s))
          [ 1; 2; 3 ]);
    Alcotest.test_case "matches the oracle on random graphs (with pivoting)" `Quick
      (fun () ->
        let rng = Scoll.Rng.create 71 in
        for _ = 1 to 15 do
          let n = 4 + Scoll.Rng.int rng 7 in
          let m = Scoll.Rng.int rng ((n * (n - 1) / 2) + 1) in
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
          let s = 1 + Scoll.Rng.int rng 3 in
          check Test_support.ns_list "oracle"
            (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s)
            (collect ~pivot:true g s)
        done);
    Alcotest.test_case "handles disconnected graphs and isolated nodes" `Quick
      (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2) ] in
        check Test_support.ns_list "components + singletons"
          [ of_l [ 0; 1; 2 ]; of_l [ 3 ]; of_l [ 4 ] ]
          (collect g 2));
    Alcotest.test_case "all options stacked: degeneracy + pivot + feasibility + k"
      `Quick (fun () ->
        let rng = Scoll.Rng.create 72 in
        for _ = 1 to 10 do
          let n = 5 + Scoll.Rng.int rng 6 in
          let m = Scoll.Rng.int rng ((n * (n - 1) / 2) + 1) in
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
          let expected =
            List.filter
              (fun c -> NS.cardinal c >= 3)
              (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s:2)
          in
          check Test_support.ns_list "oracle (filtered)" expected
            (collect ~pivot:true ~feasibility:true ~min_size:3 g 2)
        done);
  ]

let suites =
  [
    ("s_club", s_club_tests);
    ("quasi_clique", quasi_clique_tests);
    ("degeneracy_root", degeneracy_root_tests);
  ]
