(* Graph storage, Builder, and edge-list I/O. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool
let ns = Test_support.ns

let triangle () = G.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let graph_tests =
  [
    Alcotest.test_case "of_edges basic" `Quick (fun () ->
        let g = triangle () in
        check int "n" 3 (G.n g);
        check int "m" 3 (G.m g);
        check bool "edge 0-1" true (G.mem_edge g 0 1);
        check bool "edge 1-0 (symmetric)" true (G.mem_edge g 1 0);
        check bool "no self edge" false (G.mem_edge g 1 1));
    Alcotest.test_case "of_edges dedups and drops loops" `Quick (fun () ->
        let g = G.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (2, 2) ] in
        check int "one edge" 1 (G.m g);
        check int "deg 2 is 0" 0 (G.degree g 2));
    Alcotest.test_case "of_edges rejects out-of-range" `Quick (fun () ->
        Alcotest.check_raises "edge (0,3)"
          (Invalid_argument "Graph.of_edges: edge (0,3) out of range (n=3)") (fun () ->
            ignore (G.of_edges ~n:3 [ (0, 3) ])));
    Alcotest.test_case "empty graph" `Quick (fun () ->
        let g = G.empty 5 in
        check int "n" 5 (G.n g);
        check int "m" 0 (G.m g);
        check int "max_degree" 0 (G.max_degree g));
    Alcotest.test_case "empty rejects negative n" `Quick (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Graph.empty: negative n (-3)")
          (fun () -> ignore (G.empty (-3))));
    Alcotest.test_case "neighbors sorted" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3) ] in
        check (Alcotest.array int) "sorted" [| 0; 3; 4 |] (G.neighbors g 2));
    Alcotest.test_case "degree" `Quick (fun () ->
        let g = triangle () in
        check int "deg" 2 (G.degree g 0));
    Alcotest.test_case "nodes" `Quick (fun () ->
        check ns "0..2" (NS.of_list [ 0; 1; 2 ]) (G.nodes (triangle ())));
    Alcotest.test_case "iter_edges each once with u<v" `Quick (fun () ->
        let g = triangle () in
        let acc = ref [] in
        G.iter_edges (fun u v -> acc := (u, v) :: !acc) g;
        check (Alcotest.list (Alcotest.pair int int)) "edges" [ (0, 1); (0, 2); (1, 2) ]
          (List.sort compare !acc));
    Alcotest.test_case "edges function" `Quick (fun () ->
        check (Alcotest.list (Alcotest.pair int int)) "edges" [ (0, 1); (0, 2); (1, 2) ]
          (G.edges (triangle ())));
    Alcotest.test_case "of_adjacency validates symmetry" `Quick (fun () ->
        Alcotest.check_raises "asymmetric"
          (Invalid_argument "Graph.of_adjacency: edge 0->1 not symmetric") (fun () ->
            ignore (G.of_adjacency [| [| 1 |]; [||] |])));
    Alcotest.test_case "of_adjacency validates sorting" `Quick (fun () ->
        Alcotest.check_raises "unsorted"
          (Invalid_argument "Graph.of_adjacency: neighbors of 0 not strictly sorted")
          (fun () -> ignore (G.of_adjacency [| [| 2; 1 |]; [| 0 |]; [| 0 |] |])));
    Alcotest.test_case "of_adjacency rejects self-loop" `Quick (fun () ->
        Alcotest.check_raises "loop" (Invalid_argument "Graph.of_adjacency: self-loop at 0")
          (fun () -> ignore (G.of_adjacency [| [| 0 |] |])));
    Alcotest.test_case "of_unsorted_adjacency sorts and dedups" `Quick (fun () ->
        let g = G.of_unsorted_adjacency [| [| 2; 1; 2 |]; [| 0 |]; [| 0; 0 |] |] in
        check int "m" 2 (G.m g);
        check (Alcotest.array int) "sorted row" [| 1; 2 |] (G.neighbors g 0));
    Alcotest.test_case "induced subgraph" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (1, 3) ] in
        let sub, back = G.induced g (NS.of_list [ 1; 2; 3 ]) in
        check int "3 nodes" 3 (G.n sub);
        check int "3 edges (1-2, 2-3, 1-3)" 3 (G.m sub);
        check (Alcotest.array int) "mapping" [| 1; 2; 3 |] back;
        check bool "edge 0-1 (orig 1-2)" true (G.mem_edge sub 0 1));
    Alcotest.test_case "induced of empty set" `Quick (fun () ->
        let sub, back = G.induced (triangle ()) NS.empty in
        check int "0 nodes" 0 (G.n sub);
        check int "empty mapping" 0 (Array.length back));
    Alcotest.test_case "equal" `Quick (fun () ->
        check bool "same" true (G.equal (triangle ()) (triangle ()));
        check bool "different" false (G.equal (triangle ()) (G.empty 3)));
    Alcotest.test_case "mem_edge bounds-checks" `Quick (fun () ->
        Alcotest.check_raises "oob" (Invalid_argument "Graph: node 9 out of range (n=3)")
          (fun () -> ignore (G.mem_edge (triangle ()) 0 9)));
    Alcotest.test_case "fold_edges accumulates each edge once" `Quick (fun () ->
        let g = Sgraph.Gen.cycle 5 in
        check int "edge count via fold" 5 (G.fold_edges (fun _ _ acc -> acc + 1) g 0);
        check int "endpoint sum" 20 (G.fold_edges (fun u v acc -> acc + u + v) g 0));
    Alcotest.test_case "pp summary" `Quick (fun () ->
        check Alcotest.string "format" "graph(n=3, m=3, max_deg=2)"
          (Format.asprintf "%a" G.pp (triangle ())));
    Alcotest.test_case "neighbor_set shares the graph's view" `Quick (fun () ->
        let g = triangle () in
        check Test_support.ns ".. of 0" (NS.of_list [ 1; 2 ]) (G.neighbor_set g 0));
  ]

let csr_tests =
  let module C = Sgraph.Csr in
  [
    Alcotest.test_case "of_rows round trips" `Quick (fun () ->
        let rows = [| [| 1; 2 |]; [| 0 |]; [| 0 |] |] in
        let c = C.of_rows rows in
        check int "n" 3 (C.n c);
        check int "entries" 4 (C.entries c);
        check (Alcotest.array (Alcotest.array int)) "rows" rows
          (Array.init (C.n c) (C.row c)));
    Alcotest.test_case "of_arrays validates offsets" `Quick (fun () ->
        Alcotest.check_raises "decreasing"
          (Invalid_argument "Csr.of_arrays: offsets decrease at 2 (1 < 2)") (fun () ->
            ignore (C.of_arrays ~offsets:[| 0; 2; 1 |] ~adjacency:[| 1; 0 |]));
        Alcotest.check_raises "bad end"
          (Invalid_argument "Csr.of_arrays: offsets end at 1 but adjacency has 2 entries")
          (fun () -> ignore (C.of_arrays ~offsets:[| 0; 1 |] ~adjacency:[| 1; 0 |])));
    Alcotest.test_case "iter/fold/mem over a row" `Quick (fun () ->
        let c = C.of_rows [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |] in
        let acc = ref [] in
        C.iter_row (fun u -> acc := u :: !acc) c 1;
        check (Alcotest.list int) "iter" [ 2; 0 ] !acc;
        check int "fold sum" 2 (C.fold_row (fun a u -> a + u) 0 c 1);
        check bool "mem hit" true (C.mem_row c 0 2);
        check bool "mem miss" false (C.mem_row c 1 1));
    Alcotest.test_case "row copies are independent" `Quick (fun () ->
        let c = C.of_rows [| [| 1 |]; [| 0 |] |] in
        let r = C.row c 0 in
        r.(0) <- 99;
        check (Alcotest.array int) "unchanged" [| 1 |] (C.row c 0));
    Alcotest.test_case "graph csr accessor is the storage" `Quick (fun () ->
        let g = triangle () in
        let c = G.csr g in
        check int "offsets length" 4 (Array.length (C.offsets c));
        check int "adjacency length" 6 (Array.length (C.adjacency c));
        check int "degree via csr" 2 (C.degree c 1));
    Alcotest.test_case "iter_neighbors matches neighbors" `Quick (fun () ->
        let g = G.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3) ] in
        let acc = ref [] in
        G.iter_neighbors (fun u -> acc := u :: !acc) g 2;
        check (Alcotest.list int) "order" [ 4; 3; 0 ] !acc;
        check int "fold count" 3 (G.fold_neighbors (fun a _ -> a + 1) 0 g 2));
    Alcotest.test_case "relabel by reversal" `Quick (fun () ->
        (* path 0-1-2 relabeled by order [|2;1;0|]: new 0 is old 2 *)
        let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
        let r = G.relabel g ~order:[| 2; 1; 0 |] in
        check int "n" 3 (G.n r);
        check int "m" 2 (G.m r);
        check bool "new edge 0-1 (old 2-1)" true (G.mem_edge r 0 1);
        check bool "no edge 0-2 (old 2-0)" false (G.mem_edge r 0 2));
    Alcotest.test_case "relabel identity preserves the graph" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 7) ~n:40 ~avg_degree:5. in
        let r = G.relabel g ~order:(Array.init (G.n g) Fun.id) in
        check bool "equal" true (G.equal g r));
    Alcotest.test_case "relabel validates the permutation" `Quick (fun () ->
        let g = triangle () in
        Alcotest.check_raises "length"
          (Invalid_argument "Graph.relabel: order has 2 entries for 3 nodes") (fun () ->
            ignore (G.relabel g ~order:[| 0; 1 |]));
        Alcotest.check_raises "range"
          (Invalid_argument "Graph.relabel: order lists node 7 (n=3)") (fun () ->
            ignore (G.relabel g ~order:[| 0; 1; 7 |]));
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Graph.relabel: node 1 listed twice") (fun () ->
            ignore (G.relabel g ~order:[| 1; 1; 0 |])));
    Alcotest.test_case "degeneracy relabel keeps enumeration results" `Quick (fun () ->
        let g = Sgraph.Gen.social_proxy (Scoll.Rng.create 3) ~n:60 ~avg_degree:6. ~communities:4 in
        let order = Sgraph.Degeneracy.ordering g in
        let r = G.relabel g ~order in
        check int "same m" (G.m g) (G.m r);
        check int "same degeneracy" (Sgraph.Degeneracy.degeneracy g)
          (Sgraph.Degeneracy.degeneracy r));
  ]

let builder_tests =
  [
    Alcotest.test_case "incremental build" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Sgraph.Builder.add_edge b 0 1;
        Sgraph.Builder.add_edge b 1 2;
        let g = Sgraph.Builder.build b in
        check int "n" 3 (G.n g);
        check int "m" 2 (G.m g));
    Alcotest.test_case "auto-grows to max id" `Quick (fun () ->
        let b = Sgraph.Builder.create ~expected_nodes:2 () in
        Sgraph.Builder.add_edge b 0 99;
        check int "node_count" 100 (Sgraph.Builder.node_count b);
        check int "n" 100 (G.n (Sgraph.Builder.build b)));
    Alcotest.test_case "isolated nodes via add_node" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Sgraph.Builder.add_node b 4;
        let g = Sgraph.Builder.build b in
        check int "5 nodes" 5 (G.n g);
        check int "no edges" 0 (G.m g));
    Alcotest.test_case "self-loops dropped" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Sgraph.Builder.add_edge b 3 3;
        let g = Sgraph.Builder.build b in
        check int "4 nodes" 4 (G.n g);
        check int "no edges" 0 (G.m g));
    Alcotest.test_case "duplicate edges collapse" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Sgraph.Builder.add_edge b 0 1;
        Sgraph.Builder.add_edge b 1 0;
        Sgraph.Builder.add_edge b 0 1;
        check int "3 insertions" 3 (Sgraph.Builder.edge_count b);
        check int "1 edge" 1 (G.m (Sgraph.Builder.build b)));
    Alcotest.test_case "negative id rejected" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Alcotest.check_raises "negative" (Invalid_argument "Builder.add_edge: negative id")
          (fun () -> Sgraph.Builder.add_edge b (-1) 2));
    Alcotest.test_case "builder reusable after build" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        Sgraph.Builder.add_edge b 0 1;
        ignore (Sgraph.Builder.build b);
        Sgraph.Builder.add_edge b 1 2;
        check int "2 edges now" 2 (G.m (Sgraph.Builder.build b)));
    Alcotest.test_case "empty builder builds empty graph" `Quick (fun () ->
        check int "0 nodes" 0 (G.n (Sgraph.Builder.build (Sgraph.Builder.create ()))));
    Alcotest.test_case "many edges force growth" `Quick (fun () ->
        let b = Sgraph.Builder.create () in
        for i = 0 to 999 do
          Sgraph.Builder.add_edge b i (i + 1)
        done;
        let g = Sgraph.Builder.build b in
        check int "path of 1001" 1000 (G.m g));
  ]

let io_tests =
  let module Io = Sgraph.Edge_list_io in
  [
    Alcotest.test_case "parse basic" `Quick (fun () ->
        let g = Io.parse_string "0 1\n1 2\n" in
        check int "n" 3 (G.n g);
        check int "m" 2 (G.m g));
    Alcotest.test_case "comments and blanks ignored" `Quick (fun () ->
        let g = Io.parse_string "# header\n\n0 1\n   # indented comment\n\n1 2\n" in
        check int "m" 2 (G.m g));
    Alcotest.test_case "whitespace flexibility" `Quick (fun () ->
        let g = Io.parse_string "0\t1\n  1   2  \r\n" in
        check int "m" 2 (G.m g));
    Alcotest.test_case "lone id declares isolated node" `Quick (fun () ->
        let g = Io.parse_string "0 1\n5\n" in
        check int "n includes 5" 6 (G.n g);
        check int "m" 1 (G.m g));
    Alcotest.test_case "malformed token reports line" `Quick (fun () ->
        Alcotest.check_raises "bad token"
          (Sgraph.Io_error.Parse_error
             { file = "<string>"; line = 2; msg = "expected a node id, got \"x\"" })
          (fun () -> ignore (Io.parse_string "0 1\n0 x\n")));
    Alcotest.test_case "negative id reports line" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Sgraph.Io_error.Parse_error
             { file = "<string>"; line = 1; msg = "negative node id \"-2\"" })
          (fun () -> ignore (Io.parse_string "-2 1\n")));
    Alcotest.test_case "trailing garbage rejected" `Quick (fun () ->
        Alcotest.check_raises "trailing"
          (Sgraph.Io_error.Parse_error
             { file = "<string>"; line = 1; msg = "trailing characters after edge" })
          (fun () -> ignore (Io.parse_string "0 1 2\n")));
    Alcotest.test_case "load reports file name in error" `Quick (fun () ->
        let path = Filename.temp_file "scliques" ".edges" in
        let oc = open_out path in
        output_string oc "0 1\nbogus line\n";
        close_out oc;
        (match Io.load path with
        | exception Sgraph.Io_error.Parse_error { file; line; _ } ->
            check string "file" path file;
            check int "line" 2 line
        | _ -> Alcotest.fail "expected Parse_error");
        Sys.remove path);
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 5) ~n:50 ~avg_degree:4. in
        let path = Filename.temp_file "scliques" ".edges" in
        Io.save g path;
        let g' = Io.load path in
        Sys.remove path;
        check bool "round trip equal" true (G.equal g g'));
    Alcotest.test_case "round trip keeps isolated nodes" `Quick (fun () ->
        let g = G.of_edges ~n:6 [ (0, 1) ] in
        let g' = Io.parse_string (Io.to_string g) in
        check int "n preserved" 6 (G.n g');
        check bool "equal" true (G.equal g g'));
    Alcotest.test_case "to_string format" `Quick (fun () ->
        let g = G.of_edges ~n:2 [ (0, 1) ] in
        check Alcotest.string "exact" "# undirected graph: 2 nodes, 1 edges\n0 1\n"
          (Io.to_string g));
    Alcotest.test_case "load missing file raises Sys_error" `Quick (fun () ->
        match Io.load "/nonexistent/there.edges" with
        | exception Sys_error _ -> ()
        | _ -> Alcotest.fail "expected Sys_error");
  ]

let suites =
  [
    ("graph", graph_tests);
    ("csr", csr_tests);
    ("builder", builder_tests);
    ("edge_list_io", io_tests);
  ]
