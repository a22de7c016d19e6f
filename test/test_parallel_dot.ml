(* Parallel (domain-based) enumeration and DOT export. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module P = Scliques_core.Parallel
module E = Scliques_core.Enumerate
module Cs2 = Scliques_core.Cs_cliques2

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let parallel_tests =
  [
    Alcotest.test_case "matches sequential on figure 1" `Quick (fun () ->
        let g = fst (Sgraph.Gen.figure1 ()) in
        List.iter
          (fun s ->
            check Test_support.ns_list
              (Printf.sprintf "s=%d" s)
              (E.sorted_results E.Cs2_p g ~s)
              (P.enumerate ~workers:3 g ~s))
          [ 1; 2; 3 ]);
    Alcotest.test_case "matches the oracle on random graphs, various workers" `Quick
      (fun () ->
        let rng = Scoll.Rng.create 81 in
        for _ = 1 to 10 do
          let n = 4 + Scoll.Rng.int rng 7 in
          let m = Scoll.Rng.int rng ((n * (n - 1) / 2) + 1) in
          let g = Sgraph.Gen.erdos_renyi_gnm rng ~n ~m in
          let s = 1 + Scoll.Rng.int rng 2 in
          let expected = Scliques_core.Brute_force.maximal_connected_s_cliques g ~s in
          List.iter
            (fun workers ->
              check Test_support.ns_list
                (Printf.sprintf "n=%d workers=%d" n workers)
                expected
                (P.enumerate ~workers g ~s))
            [ 1; 2; 4 ]
        done);
    Alcotest.test_case "more workers than nodes" `Quick (fun () ->
        let g = Sgraph.Gen.path 3 in
        check Test_support.ns_list "still complete"
          (E.sorted_results E.Cs2_p g ~s:2)
          (P.enumerate ~workers:8 g ~s:2));
    Alcotest.test_case "feasibility and min_size pass through" `Quick (fun () ->
        let g = Test_support.random_graph 82 ~n:20 ~m:45 in
        check Test_support.ns_list "min_size"
          (E.sorted_results ~min_size:4 E.Cs2_pf g ~s:2)
          (P.enumerate ~workers:3
             ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = true })
             ~min_size:4 g ~s:2));
    Alcotest.test_case "stats account for every result" `Quick (fun () ->
        let g = Test_support.random_graph 83 ~n:25 ~m:60 in
        let obs = Scliques_obs.Obs.create () in
        let results = P.enumerate ~workers:3 ~obs g ~s:2 in
        let counter name =
          Scliques_obs.Counters.find (Scliques_obs.Obs.counters obs) name
        in
        let per_worker what =
          List.init 3 (fun i -> counter (Printf.sprintf "par.worker%d.%s" i what))
        in
        check int "worker counts sum to total" (List.length results)
          (List.fold_left (fun acc c -> acc + Option.get c) 0 (per_worker "results"));
        check (Alcotest.option int) "3 workers" (Some 3) (counter "par.workers");
        List.iter
          (fun t -> check bool "tasks non-negative" true (Option.get t >= 0))
          (per_worker "tasks"));
    Alcotest.test_case "workers < 1 rejected" `Quick (fun () ->
        match P.enumerate ~workers:0 (Sgraph.Gen.path 3) ~s:2 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "empty graph" `Quick (fun () ->
        check Test_support.ns_list "nothing" [] (P.enumerate ~workers:2 (G.empty 0) ~s:2));
    Alcotest.test_case "committed results are not retained" `Quick (fun () ->
        (* weakly hold the first non-empty root's results; the sink drops
           them, so by the next commit nothing may keep them alive *)
        let g = Test_support.random_graph 84 ~n:40 ~m:90 in
        let held = ref None and alive = ref None in
        let (_ : Scliques_core.Budget.outcome), (_ : int list) =
          P.run ~workers:1 ~budget:(Scliques_core.Budget.unlimited ()) g ~s:2
            (fun _root rs ->
              match (!held, rs) with
              | None, [] -> ()
              | None, _ :: _ ->
                  let w = Weak.create (List.length rs) in
                  List.iteri (fun i c -> Weak.set w i (Some c)) rs;
                  held := Some w
              | Some w, _ when Option.is_none !alive ->
                  Gc.full_major ();
                  alive :=
                    Some
                      (List.length
                         (List.filter (Weak.check w) (List.init (Weak.length w) Fun.id)))
              | Some _, _ -> ())
        in
        check (Alcotest.option int) "live results of the first root" (Some 0) !alive);
    Alcotest.test_case "SF hubs, 2 workers, forced splits = sequential" `Quick (fun () ->
        (* every task of depth < 64 is expanded and all its children are
           requeued, so subtrees of the hubs' big universes move between
           the two workers and run on runners that did not build them *)
        let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 17) ~n:120 ~m_attach:3 in
        List.iter
          (fun (alg, feasibility) ->
            let obs = Scliques_obs.Obs.create () in
            let got =
              P.enumerate ~workers:2 ~split_depth:64 ~split_width:0 ~split_min_subtree:0
                ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility })
                ~obs g ~s:2
            in
            check Test_support.ns_list (E.name alg) (E.sorted_results alg g ~s:2) got;
            check bool "split" true
              (Scliques_obs.Counters.value (Scliques_obs.Obs.counter obs "par.splits") > 0))
          [ (E.Cs2_p, false); (E.Cs2_pf, true) ]);
  ]

let dot_tests =
  let module Dot = Sgraph.Dot in
  [
    Alcotest.test_case "contains every node and edge" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 4 in
        let dot = Dot.to_dot g in
        for v = 0 to 3 do
          check bool (Printf.sprintf "node %d" v) true
            (Astring_contains.contains dot (Printf.sprintf "  %d [label=" v))
        done;
        check bool "edge 0--1" true (Astring_contains.contains dot "0 -- 1;");
        check bool "edge 3--0... as 0 -- 3" true (Astring_contains.contains dot "0 -- 3;"));
    Alcotest.test_case "names appear" `Quick (fun () ->
        let g, name = Sgraph.Gen.figure1 () in
        let dot = Dot.to_dot ~name g in
        check bool "Ann labeled" true (Astring_contains.contains dot "label=\"Ann\"");
        check bool "Hal labeled" true (Astring_contains.contains dot "label=\"Hal\""));
    Alcotest.test_case "highlights color members and annotate membership" `Quick
      (fun () ->
        let g = Sgraph.Gen.path 3 in
        let dot = Dot.to_dot ~highlight:[ NS.of_list [ 0; 1 ] ] g in
        check bool "member colored" true (Astring_contains.contains dot "#a6cee3");
        check bool "membership index" true (Astring_contains.contains dot "[0]");
        check bool "non-member stays white" true
          (Astring_contains.contains dot "label=\"2\", fillcolor=\"white\""));
    Alcotest.test_case "write creates a parseable file" `Quick (fun () ->
        let g = Sgraph.Gen.star 4 in
        let path = Filename.temp_file "scliques" ".dot" in
        Dot.write g path;
        let ic = open_in path in
        let first = input_line ic in
        close_in ic;
        Sys.remove path;
        check Alcotest.string "header" "graph scliques {" first);
  ]

let suites = [ ("parallel", parallel_tests); ("dot", dot_tests) ]
