(* An executable walkthrough of the paper's worked examples.

   Each section prints what the paper states and what this implementation
   computes, so the two can be eyeballed side by side. (The test suite
   asserts all of these; this example narrates them.)

   Run with: dune exec examples/paper_walkthrough.exe *)

module E = Scliques_core.Enumerate
module NS = Sgraph.Node_set
module V = Scliques_core.Verify

let section title = Printf.printf "\n=== %s ===\n" title

let pp_named name c = "{" ^ String.concat "," (List.map name (NS.to_list c)) ^ "}"

let () =
  let g, name = Sgraph.Gen.figure1 () in

  section "Example 1.1 — the graph of Figure 1";
  Printf.printf "paper: six maximal cliques; three maximal 2-cliques; two maximal\n";
  Printf.printf "3-cliques; a single maximal 4-clique (the diameter of G is four).\n";
  List.iter
    (fun s ->
      let r = E.sorted_results E.Cs2_pf g ~s in
      Printf.printf "computed s=%d (%d): %s\n" s (List.length r)
        (String.concat " " (List.map (pp_named name) r)))
    [ 1; 2; 3; 4 ];
  Printf.printf "computed diameter: %d\n" (Sgraph.Metrics.approx_diameter g);

  section "Example 3.1 — the N-operators, V = {Eli, Hal}";
  let v = NS.of_list [ 4; 7 ] in
  let nh1 = Scliques_core.Neighborhood.create ~s:1 g in
  let nh2 = Scliques_core.Neighborhood.create ~s:2 g in
  Printf.printf "paper: N^∃1 = {d,f,g}; N^∀1 = {f}; N^∃2 adds {b,c}; N^∀2 = N^∃1.\n";
  Printf.printf "computed N^∃1 = %s   N^∀1 = %s\n"
    (pp_named name (Scliques_core.Neighborhood.adjacent_any nh1 v))
    (pp_named name (Scliques_core.Neighborhood.ball_forall nh1 v));
  Printf.printf "computed N^∀2 = %s\n"
    (pp_named name (Scliques_core.Neighborhood.ball_forall nh2 v));

  section "Example 3.2 — s-cliques vs connected s-cliques";
  let abcdefg = NS.of_list [ 0; 1; 2; 3; 4; 5; 6 ] in
  let ad = NS.of_list [ 0; 3 ] in
  Printf.printf "{a..g}: 3-clique %b (paper: yes), 2-clique %b (paper: no, dist(a,f)=3)\n"
    (V.is_s_clique g ~s:3 abcdefg)
    (V.is_s_clique g ~s:2 abcdefg);
  Printf.printf "{a,d}: 2-clique %b but connected 2-clique %b (paper: yes / no)\n"
    (V.is_s_clique g ~s:2 ad)
    (V.is_connected_s_clique g ~s:2 ad);

  section "Examples 3.3 / 3.4 — the exponential gadget G'";
  let gadget = Sgraph.Gen.exponential_gadget 3 in
  Printf.printf
    "paper: at least 2^3 = 8 maximal connected 2-cliques on %d nodes;\n\
     {v1,v2,v'3,w,w'} is one of them.\n"
    (Sgraph.Graph.n gadget);
  Printf.printf "computed: %d maximal connected 2-cliques\n"
    (E.run E.Cs2_pf gadget ~s:2 ignore).E.emitted;
  let sample = NS.of_list [ 0; 1; 3 + 2; 6; 7 ] in
  Printf.printf "computed: {v1,v2,v'3,w,w'} maximal: %b\n"
    (V.is_maximal_connected_s_clique gadget ~s:2 sample);

  section "Example 4.1 — one step of PolyDelayEnum";
  Printf.printf
    "paper: from C = {a,b,c,d} and v = Eli, ExtendMax({e}, G[C∪{e}], 2) = {b,c,d,e},\n\
     then re-maximizing gives {b,c,d,e,f,g}.\n";
  let nh = Scliques_core.Neighborhood.create ~s:2 g in
  let rows = Scliques_core.Poly_delay.Rows.create nh in
  Scliques_core.Poly_delay.Rows.load rows (NS.of_list [ 0; 1; 2; 3 ]);
  let carved = Scliques_core.Poly_delay.Rows.carve rows 4 in
  let full = Scliques_core.Extend_max.in_graph nh carved in
  Printf.printf "computed: carved = %s, re-maximized = %s\n" (pp_named name carved)
    (pp_named name full);

  section "Example 5.2 — the ω1 ordering";
  Printf.printf "paper: ω1({v1,v'2,w,w',u12}) = v1, w, u12, v'2, w'.\n";
  (* gadget layout: v_i = i, v'_i = n+i, w = 2n, w' = 2n+1, u_{ij} after *)
  let c = NS.of_list [ 0; 4; 6; 7; 8 ] in
  (* {v1, v'2, w, w', u_{1,2}} in our layout: u_{1,2} is the first u node *)
  Printf.printf "computed (our node layout): %s\n"
    (String.concat ", " (List.map string_of_int (Scliques_core.Orderings.omega1 gadget c)));

  section "Example 5.7 / Theorem 5.6 — feasibility";
  Printf.printf
    "paper: pruning infeasible branches completely is NP-complete (3-SAT).\n";
  let lit v n = { Scliques_core.Hardness.variable = v; negated = n } in
  let sat = [ (lit 1 false, lit 2 true, lit 3 false) ] in
  let unsat =
    [ (lit 0 false, lit 0 false, lit 0 false); (lit 0 true, lit 0 true, lit 0 true) ]
  in
  List.iter
    (fun (label, psi) ->
      let r = Scliques_core.Hardness.reduce psi ~s:2 in
      Printf.printf "%-13s satisfiable=%b  seed-extendable=%b\n" label
        (Scliques_core.Hardness.satisfiable psi)
        (Scliques_core.Hardness.feasible r))
    [ ("(x1∨¬x2∨x3)", sat); ("x ∧ ¬x", unsat) ];

  section "Remark 1 — why the power graph is not enough";
  let c6 = Sgraph.Gen.cycle 6 in
  let via_power = Scliques_core.Bron_kerbosch.maximal_s_cliques_via_power c6 ~s:2 in
  Printf.printf
    "on the 6-cycle, G^2's maximal cliques include the unconnected {0,2,4}: %b;\n\
     connected enumeration correctly omits it: %b\n"
    (List.exists (NS.equal (NS.of_list [ 0; 2; 4 ])) via_power)
    (not
       (List.exists
          (NS.equal (NS.of_list [ 0; 2; 4 ]))
          (E.sorted_results E.Cs2_pf c6 ~s:2)))
