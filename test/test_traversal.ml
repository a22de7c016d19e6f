(* Bfs, Components, Degeneracy, Power, Metrics. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module Bfs = Sgraph.Bfs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let ns = Test_support.ns

let path5 () = Sgraph.Gen.path 5
let of_l = NS.of_list

(* One scratch serves every ball of every case: each graph, and the same
   graph padded with 6,400 isolated nodes, so the scratch serves graphs
   of many sizes below its capacity and balls that reach words far apart
   in the visited set. *)
let scratch_matches_ball =
  let pad = 6_400 in
  let sc = Bfs.scratch (200 + pad) in
  let outcome f = match f () with b -> Ok b | exception Invalid_argument msg -> Error msg in
  let show = function Ok b -> NS.to_string b | Error msg -> "refused: " ^ msg in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"scratch ball = Bfs.ball, one scratch reused"
       ~print:Test_differential.print_case
       QCheck2.Gen.(
         oneofl [ `Er; `Sf ] >>= fun family ->
         int_range 1 4 >>= fun s ->
         int_range 2 200 >>= fun n ->
         int_range 0 (3 * n) >>= fun m ->
         int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed))
       (fun (family, n, m, _, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         let padded = G.of_edges ~n:(n + pad) (G.edges g) in
         let same what g v radius =
           (match
              ( outcome (fun () -> Bfs.ball g v ~radius),
                outcome (fun () -> Bfs.ball_on sc g v ~radius) )
            with
           | Ok want, Ok got when NS.equal want got -> ()
           | Error want, Error got when String.equal want got -> ()
           | want, got ->
               QCheck2.Test.fail_reportf "%s: ball %d r=%d: want %s, got %s" what v radius
                 (show want) (show got));
           if not (Bfs.is_clear sc) then
             QCheck2.Test.fail_reportf "%s: scratch not clear after ball %d r=%d" what v
               radius
         in
         for v = 0 to n - 1 do
           for radius = 0 to 4 do
             same "bare" g v radius;
             same "padded" padded v radius
           done;
           same "bare" g v n
         done;
         (* refusals as Bfs.ball's: negative radius, and a bad node at a
            positive radius (radius 0 answers empty without looking) *)
         List.iter
           (fun (v, radius) -> same "bad input" g v radius)
           [ (0, -1); (-1, 1); (n, 2); (n, 0); (-3, 0); (n + pad, 1) ];
         (* a continuation that raises still leaves the scratch clear *)
         (match Bfs.with_ball sc g 0 ~radius:2 (fun _ _ -> raise Exit) with
         | () -> QCheck2.Test.fail_report "with_ball swallowed the exception"
         | exception Exit -> ());
         Bfs.is_clear sc))

let bfs_tests =
  [
    Alcotest.test_case "distances on a path" `Quick (fun () ->
        check (Alcotest.array int) "from 0" [| 0; 1; 2; 3; 4 |] (Bfs.distances (path5 ()) 0);
        check (Alcotest.array int) "from middle" [| 2; 1; 0; 1; 2 |]
          (Bfs.distances (path5 ()) 2));
    Alcotest.test_case "distances mark unreachable -1" `Quick (fun () ->
        let g = G.of_edges ~n:4 [ (0, 1) ] in
        check (Alcotest.array int) "component only" [| 0; 1; -1; -1 |] (Bfs.distances g 0));
    Alcotest.test_case "pairwise distance" `Quick (fun () ->
        let g = path5 () in
        check int "0 to 4" 4 (Bfs.distance g 0 4);
        check int "same node" 0 (Bfs.distance g 2 2);
        check int "disconnected" (-1) (Bfs.distance (G.empty 3) 0 2));
    Alcotest.test_case "distance validates both endpoints" `Quick (fun () ->
        let g = path5 () in
        Alcotest.check_raises "src oob"
          (Invalid_argument "Bfs.distance: node 9 out of range (n=5)") (fun () ->
            ignore (Bfs.distance g 9 0));
        Alcotest.check_raises "dst oob"
          (Invalid_argument "Bfs.distance: node -1 out of range (n=5)") (fun () ->
            ignore (Bfs.distance g 0 (-1)));
        (* the src = dst shortcut must not bypass validation *)
        Alcotest.check_raises "src = dst oob"
          (Invalid_argument "Bfs.distance: node 7 out of range (n=5)") (fun () ->
            ignore (Bfs.distance g 7 7)));
    Alcotest.test_case "distances validates the source" `Quick (fun () ->
        Alcotest.check_raises "oob"
          (Invalid_argument "Bfs.distances: node 5 out of range (n=5)") (fun () ->
            ignore (Bfs.distances (path5 ()) 5)));
    Alcotest.test_case "ball excludes the center" `Quick (fun () ->
        let g = path5 () in
        check ns "radius 1" (of_l [ 1; 3 ]) (Bfs.ball g 2 ~radius:1);
        check ns "radius 2" (of_l [ 0; 1; 3; 4 ]) (Bfs.ball g 2 ~radius:2);
        check ns "radius 0" NS.empty (Bfs.ball g 2 ~radius:0));
    Alcotest.test_case "ball radius larger than graph" `Quick (fun () ->
        check ns "everything" (of_l [ 1; 2; 3; 4 ]) (Bfs.ball (path5 ()) 0 ~radius:99));
    Alcotest.test_case "ball on cycle wraps both ways" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 6 in
        check ns "radius 2 from 0" (of_l [ 1; 2; 4; 5 ]) (Bfs.ball g 0 ~radius:2));
    Alcotest.test_case "ball negative radius rejected" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Bfs.ball: negative radius") (fun () ->
            ignore (Bfs.ball (path5 ()) 0 ~radius:(-1))));
    Alcotest.test_case "ball_within respects the universe" `Quick (fun () ->
        (* path 0-1-2-3-4: without node 2 the ball from 1 cannot reach 3 *)
        let g = path5 () in
        let universe = of_l [ 0; 1; 3; 4 ] in
        check ns "blocked" (of_l [ 0 ]) (Bfs.ball_within g ~universe 1 ~radius:3));
    Alcotest.test_case "ball_within equals ball on full universe" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 7 in
        check ns "same" (Bfs.ball g 3 ~radius:2)
          (Bfs.ball_within g ~universe:(G.nodes g) 3 ~radius:2));
    Alcotest.test_case "ball_within source outside universe rejected" `Quick (fun () ->
        Alcotest.check_raises "outside"
          (Invalid_argument "Bfs.ball_within: source outside universe") (fun () ->
            ignore (Bfs.ball_within (path5 ()) ~universe:(of_l [ 0; 1 ]) 3 ~radius:1)));
    Alcotest.test_case "reachable_within includes source" `Quick (fun () ->
        let g = path5 () in
        check ns "0-1 side" (of_l [ 0; 1 ]) (Bfs.reachable_within g ~universe:(of_l [ 0; 1; 3; 4 ]) 0));
    Alcotest.test_case "is_connected_subset" `Quick (fun () ->
        let g = path5 () in
        check bool "contiguous" true (Bfs.is_connected_subset g (of_l [ 1; 2; 3 ]));
        check bool "gap" false (Bfs.is_connected_subset g (of_l [ 0; 1; 3 ]));
        check bool "empty" true (Bfs.is_connected_subset g NS.empty);
        check bool "singleton" true (Bfs.is_connected_subset g (of_l [ 4 ])));
    Alcotest.test_case "distances agree with power graph edges" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 9) ~n:40 ~avg_degree:3. in
        let p2 = Sgraph.Power.power g ~s:2 in
        G.iter_nodes
          (fun v ->
            let dist = Bfs.distances g v in
            G.iter_nodes
              (fun u ->
                if u <> v then
                  check bool
                    (Printf.sprintf "edge %d-%d iff dist<=2" v u)
                    (dist.(u) >= 1 && dist.(u) <= 2)
                    (G.mem_edge p2 v u))
              g)
          g);
    scratch_matches_ball;
  ]

let components_tests =
  let module C = Sgraph.Components in
  [
    Alcotest.test_case "single component" `Quick (fun () ->
        check int "one" 1 (C.count (path5 ()));
        check bool "connected" true (C.is_connected (path5 ())));
    Alcotest.test_case "empty and single-node graphs are connected" `Quick (fun () ->
        check bool "empty" true (C.is_connected (G.empty 0));
        check bool "one node" true (C.is_connected (G.empty 1));
        check bool "two isolated" false (C.is_connected (G.empty 2)));
    Alcotest.test_case "multiple components listed by smallest member" `Quick (fun () ->
        let g = G.of_edges ~n:6 [ (0, 1); (3, 4) ] in
        check Test_support.ns_list "components"
          [ of_l [ 0; 1 ]; of_l [ 2 ]; of_l [ 3; 4 ]; of_l [ 5 ] ]
          (C.components g));
    Alcotest.test_case "largest" `Quick (fun () ->
        let g = G.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
        check ns "triple" (of_l [ 2; 3; 4 ]) (C.largest g));
    Alcotest.test_case "largest of empty graph raises" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Components.largest: empty graph")
          (fun () -> ignore (C.largest (G.empty 0))));
    Alcotest.test_case "component_of" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (3, 4) ] in
        check ns "of 4" (of_l [ 3; 4 ]) (C.component_of g 4);
        check ns "of 2" (of_l [ 2 ]) (C.component_of g 2));
    Alcotest.test_case "components_within" `Quick (fun () ->
        let g = path5 () in
        check Test_support.ns_list "induced split"
          [ of_l [ 0; 1 ]; of_l [ 3; 4 ] ]
          (C.components_within g (of_l [ 0; 1; 3; 4 ])));
    Alcotest.test_case "labels cover all nodes" `Quick (fun () ->
        let g = G.of_edges ~n:7 [ (0, 1); (2, 3); (5, 6) ] in
        let label, c = C.labels g in
        check int "4 components" 4 c;
        Array.iter (fun l -> check bool "label in range" true (l >= 0 && l < c)) label;
        check int "0 and 1 same" label.(0) label.(1);
        check bool "0 and 2 differ" true (label.(0) <> label.(2)));
  ]

let degeneracy_tests =
  let module D = Sgraph.Degeneracy in
  [
    Alcotest.test_case "complete graph K5 has degeneracy 4" `Quick (fun () ->
        check int "4" 4 (D.degeneracy (Sgraph.Gen.complete 5)));
    Alcotest.test_case "tree has degeneracy 1" `Quick (fun () ->
        check int "path" 1 (D.degeneracy (path5 ()));
        check int "star" 1 (D.degeneracy (Sgraph.Gen.star 10)));
    Alcotest.test_case "cycle has degeneracy 2" `Quick (fun () ->
        check int "2" 2 (D.degeneracy (Sgraph.Gen.cycle 8)));
    Alcotest.test_case "edgeless graph has degeneracy 0" `Quick (fun () ->
        check int "0" 0 (D.degeneracy (G.empty 4)));
    Alcotest.test_case "core numbers of K4 plus pendant" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4) ] in
        check (Alcotest.array int) "cores" [| 3; 3; 3; 3; 1 |] (D.core_numbers g));
    Alcotest.test_case "ordering property: few later neighbors" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 3) ~n:60 ~avg_degree:6. in
        let d = D.degeneracy g in
        let order = D.ordering g in
        let position = Array.make (G.n g) 0 in
        Array.iteri (fun i v -> position.(v) <- i) order;
        G.iter_nodes
          (fun v ->
            let later =
              Array.fold_left
                (fun acc u -> if position.(u) > position.(v) then acc + 1 else acc)
                0 (G.neighbors g v)
            in
            check bool "bounded by degeneracy" true (later <= d))
          g);
    Alcotest.test_case "ordering is a permutation" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 4) ~n:30 ~avg_degree:4. in
        let order = Array.copy (D.ordering g) in
        Array.sort compare order;
        check (Alcotest.array int) "permutation" (Array.init 30 Fun.id) order);
    Alcotest.test_case "k_core extraction" `Quick (fun () ->
        (* K4 (0..3) with pendant chain 4-5 *)
        let g = G.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5) ] in
        check ns "3-core" (of_l [ 0; 1; 2; 3 ]) (D.k_core g 3);
        check ns "1-core is all" (of_l [ 0; 1; 2; 3; 4; 5 ]) (D.k_core g 1);
        check ns "4-core empty" NS.empty (D.k_core g 4));
    Alcotest.test_case "degeneracy of complete bipartite K33" `Quick (fun () ->
        check int "3" 3 (D.degeneracy (Sgraph.Gen.complete_bipartite 3 3)));
  ]

let power_tests =
  let module P = Sgraph.Power in
  [
    Alcotest.test_case "s=1 is the graph itself" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 7 in
        check bool "equal" true (G.equal g (P.power g ~s:1)));
    Alcotest.test_case "path squared" `Quick (fun () ->
        let p2 = P.power (path5 ()) ~s:2 in
        check int "edges: 4 dist-1 + 3 dist-2" 7 (G.m p2);
        check bool "0-2 now adjacent" true (G.mem_edge p2 0 2);
        check bool "0-3 still not" false (G.mem_edge p2 0 3));
    Alcotest.test_case "large s gives cliques per component" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
        let p = P.power g ~s:4 in
        check bool "0-2" true (G.mem_edge p 0 2);
        check bool "3-4" true (G.mem_edge p 3 4);
        check bool "components never merge" false (G.mem_edge p 2 3));
    Alcotest.test_case "s<1 rejected" `Quick (fun () ->
        Alcotest.check_raises "s=0" (Invalid_argument "Power.power: s must be >= 1")
          (fun () -> ignore (P.power (path5 ()) ~s:0)));
    Alcotest.test_case "figure 3: H^2 of the paper" `Quick (fun () ->
        (* the paper's example: v1,v3,v5 pairwise adjacent in H^2 *)
        let h2 = P.power (Sgraph.Gen.figure3_h ()) ~s:2 in
        check bool "v1-v3" true (G.mem_edge h2 0 2);
        check bool "v3-v5" true (G.mem_edge h2 2 4);
        check bool "v1-v5" true (G.mem_edge h2 0 4));
  ]

let metrics_tests =
  let module M = Sgraph.Metrics in
  let feq = Alcotest.float 1e-9 in
  [
    Alcotest.test_case "avg_degree" `Quick (fun () ->
        check feq "cycle" 2. (M.avg_degree (Sgraph.Gen.cycle 6));
        check feq "empty" 0. (M.avg_degree (G.empty 0)));
    Alcotest.test_case "density" `Quick (fun () ->
        check feq "complete" 1. (M.density (Sgraph.Gen.complete 6));
        check feq "empty edges" 0. (M.density (G.empty 6)));
    Alcotest.test_case "degree_histogram" `Quick (fun () ->
        check (Alcotest.array int) "star 4: three leaves one hub" [| 0; 3; 0; 1 |]
          (M.degree_histogram (Sgraph.Gen.star 4)));
    Alcotest.test_case "triangles" `Quick (fun () ->
        check int "K4 has 4" 4 (M.triangle_count (Sgraph.Gen.complete 4));
        check int "K5 has 10" 10 (M.triangle_count (Sgraph.Gen.complete 5));
        check int "cycle none" 0 (M.triangle_count (Sgraph.Gen.cycle 5));
        check int "petersen none" 0 (M.triangle_count (Sgraph.Gen.petersen ())));
    Alcotest.test_case "global clustering" `Quick (fun () ->
        check feq "complete graph 1" 1. (M.global_clustering (Sgraph.Gen.complete 5));
        check feq "tree 0" 0. (M.global_clustering (Sgraph.Gen.star 6)));
    Alcotest.test_case "approx diameter exact on paths and cycles" `Quick (fun () ->
        check int "path" 4 (M.approx_diameter (path5 ()));
        check int "cycle 8" 4 (M.approx_diameter (Sgraph.Gen.cycle 8));
        check int "edgeless" 0 (M.approx_diameter (G.empty 5)));
    Alcotest.test_case "figure1 diameter is 4 (paper: 'the diameter of G is four')"
      `Quick (fun () ->
        let g, _ = Sgraph.Gen.figure1 () in
        check int "4" 4 (M.approx_diameter g));
    Alcotest.test_case "triangle count agrees with a brute-force count" `Quick
      (fun () ->
        let rng = Scoll.Rng.create 13 in
        for _ = 1 to 10 do
          let n = 4 + Scoll.Rng.int rng 10 in
          let m = Scoll.Rng.int rng ((n * (n - 1) / 2) + 1) in
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
          let brute = ref 0 in
          for a = 0 to n - 1 do
            for b = a + 1 to n - 1 do
              for c = b + 1 to n - 1 do
                if G.mem_edge g a b && G.mem_edge g b c && G.mem_edge g a c then
                  incr brute
              done
            done
          done;
          check int (Printf.sprintf "n=%d m=%d" n m) !brute (M.triangle_count g)
        done);
  ]

let suites =
  [
    ("bfs", bfs_tests);
    ("components", components_tests);
    ("degeneracy", degeneracy_tests);
    ("power", power_tests);
    ("metrics", metrics_tests);
  ]
