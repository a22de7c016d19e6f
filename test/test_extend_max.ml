(* ExtendMax differential: the scratch-state loop of [Extend_max] against
   the plain set-algebra formulation it replaced, kept here as the
   reference; line 10's carve, [Poly_delay.Rows.carve], against that
   formulation's greedy loop run inside the universe C ∪ {v}. The
   reference reads only the public oracle operators (ball_forall,
   adjacent_any, ball) and allocates a fresh set per step, so it has no
   scratch to get wrong. *)

module NS = Sgraph.Node_set
module G = Sgraph.Graph
module Nh = Scliques_core.Neighborhood
module Em = Scliques_core.Extend_max
module Rows = Scliques_core.Poly_delay.Rows

module Reference = struct
  let in_graph nh c =
    let g = Nh.graph nh in
    if G.n g = 0 then NS.empty
    else begin
      let c = if NS.is_empty c then NS.singleton 0 else c in
      let candidates = ref (Nh.ball_forall nh c) in
      let frontier = ref (Nh.adjacent_any nh c) in
      let result = ref c in
      let continue_ = ref true in
      while !continue_ do
        let eligible = NS.inter !candidates !frontier in
        if NS.is_empty eligible then continue_ := false
        else begin
          let v = NS.min_elt eligible in
          result := NS.add v !result;
          candidates := NS.remove v (NS.inter !candidates (Nh.ball nh v));
          frontier := NS.diff (NS.union !frontier (G.neighbor_set g v)) !result
        end
      done;
      !result
    end

  let in_induced nh ~universe ~seed =
    assert ((not (NS.is_empty seed)) && NS.subset seed universe);
    let g = Nh.graph nh in
    let restrict set = NS.inter set universe in
    let candidates = ref (restrict (Nh.ball_forall nh seed)) in
    let frontier = ref (restrict (Nh.adjacent_any nh seed)) in
    let result = ref seed in
    let continue_ = ref true in
    while !continue_ do
      let eligible = NS.inter !candidates !frontier in
      if NS.is_empty eligible then continue_ := false
      else begin
        let v = NS.min_elt eligible in
        result := NS.add v !result;
        candidates := NS.remove v (NS.inter !candidates (Nh.ball nh v));
        frontier := restrict (NS.diff (NS.union !frontier (G.neighbor_set g v)) !result)
      end
    done;
    !result
end

let agree what expected got =
  if not (NS.equal expected got) then
    QCheck2.Test.fail_reportf "%s: reference %a, rewrite %a" what NS.pp expected NS.pp got

(* the greedy carve ExtendMax({u}, G[c ∪ {u}]) *)
let greedy_carve nh c u =
  Reference.in_induced nh ~universe:(NS.add u c) ~seed:(NS.singleton u)

(* One PolyDelayEnum-shaped round on the maximal set [c], each call
   checked against the reference on its own oracle [ref_nh]: through the
   first [carves] neighbors u of [c], carve C_u (line 10), re-maximizing
   the first [extend] carves (line 11). *)
let round ~carves ~extend ~ref_nh nh c =
  let rows = Rows.create nh in
  Rows.load rows c;
  let through = Rows.neighbors rows in
  agree "neighbors" (Nh.adjacent_any ref_nh c) through;
  for i = 0 to min carves (NS.cardinal through) - 1 do
    let u = NS.nth through i in
    let carved = Rows.carve rows u in
    agree "carve" (greedy_carve ref_nh c u) carved;
    if i < extend then
      agree "in_graph carved" (Reference.in_graph ref_nh carved) (Em.in_graph nh carved)
  done

(* maximize {v}, then a round on the result *)
let root_round ~ref_nh nh v =
  let seed = NS.singleton v in
  let c = Em.in_graph nh seed in
  agree "in_graph {v}" (Reference.in_graph ref_nh seed) c;
  round ~carves:6 ~extend:6 ~ref_nh nh c

(* a round through every neighbor of each of the first 24 sets a PD run
   on [nh] emits; the rounds share the oracle with the run between its
   steps *)
let pd_rounds ~ref_nh nh =
  let seen = ref 0 in
  ignore
    (Scliques_core.Poly_delay.run
       ~should_continue:(fun () -> !seen < 24)
       nh
       (fun c ->
         incr seen;
         round ~carves:max_int ~extend:2 ~ref_nh nh c)
      : Scliques_core.Poly_delay.run_stats * Scliques_core.Poly_delay.frontier)

(* up to 24 roots in a seed-shuffled order, so consecutive calls reuse
   the scratch on unrelated regions of the graph *)
let shuffled_nodes rng g =
  let order = Array.init (G.n g) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Scoll.Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.sub order 0 (min 24 (G.n g))

let run_case ~ref_nh nh rng g =
  agree "in_graph {}" (Reference.in_graph ref_nh NS.empty) (Em.in_graph nh NS.empty);
  Array.iter (root_round ~ref_nh nh) (shuffled_nodes rng g)

(* [g] with the edge {a, b} toggled *)
let toggle_edge g a b =
  let edges =
    List.filter (fun (u, v) -> not ((u = a && v = b) || (u = b && v = a))) (G.edges g)
  in
  G.of_edges ~n:(G.n g) (if G.mem_edge g a b then edges else (a, b) :: edges)

(* Graphs of up to 160 nodes, not the oracle-sized ones of the
   differential suite: the frontier bitset packs 32 ids per word, and a
   graph that fits in one or two words would hide a row left dirty (any
   other row's reset zeroes the same word). *)
let arb_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 1 3 >>= fun s ->
  int_range 2 160 >>= fun n ->
  int_range 0 (3 * n) >>= fun m ->
  int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed)

let property name ~count body =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Test_differential.print_case arb_case
       (fun (family, n, m, s, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         body (Scoll.Rng.create seed) g s;
         true))

let prop_interleaved =
  property "rewrite = reference, many calls on one oracle" ~count:150 (fun rng g s ->
      let nh = Nh.create ~s g in
      run_case ~ref_nh:(Nh.create ~s g) nh rng g;
      pd_rounds ~ref_nh:(Nh.create ~s g) nh;
      (* a second pass over the warm oracle *)
      run_case ~ref_nh:(Nh.create ~s g) nh rng g)

let prop_across_invalidate =
  property "rewrite = reference across Neighborhood.invalidate" ~count:80 (fun rng g s ->
      let nh = Nh.create ~s g in
      let g = ref g in
      for _ = 1 to 3 do
        run_case ~ref_nh:(Nh.create ~s !g) nh rng !g;
        let a = Scoll.Rng.int rng (G.n !g) and b = Scoll.Rng.int rng (G.n !g) in
        if a <> b then begin
          let after = toggle_edge !g a b in
          Nh.invalidate nh ~after ~touched:[ a; b ];
          g := after
        end
      done;
      run_case ~ref_nh:(Nh.create ~s !g) nh rng !g;
      pd_rounds ~ref_nh:(Nh.create ~s !g) nh)

let prop_after_refusal =
  property "rewrite = reference after refused carves" ~count:80 (fun rng g s ->
      let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
      let refused f =
        match f () with
        | (_ : NS.t) -> QCheck2.Test.fail_report "carve accepted an invalid node"
        | exception Invalid_argument _ -> ()
      in
      let n = G.n g in
      let rows = Rows.create nh in
      Array.iter
        (fun v ->
          let c = Em.in_graph nh (NS.singleton v) in
          Rows.load rows c;
          refused (fun () -> Rows.carve rows v);
          refused (fun () -> Rows.carve rows n);
          refused (fun () -> Rows.carve rows (-1));
          root_round ~ref_nh nh v)
        (shuffled_nodes rng g))

let prop_shared =
  property "rewrite = reference on of_shared oracles" ~count:80 (fun rng g s ->
      let store = Nh.Shared.create ~s g in
      let a = Nh.of_shared store and b = Nh.of_shared store in
      let ref_nh = Nh.create ~s g in
      (* two oracles warming one store, taking turns *)
      Array.iteri
        (fun i v -> root_round ~ref_nh (if i land 1 = 0 then a else b) v)
        (shuffled_nodes rng g))

let ns = Alcotest.testable NS.pp NS.equal

(* Every neighbor v of every maximal set C, that is of every set a
   complete PD run dequeues: v's row is C ∩ ball(v) and its carve the
   greedy one. The size of the largest C. *)
let every_carve g ~s =
  let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
  let rows = Rows.create nh in
  List.fold_left
    (fun widest c ->
      Rows.load rows c;
      let through = Rows.neighbors rows in
      Alcotest.check ns "neighbors" (Nh.adjacent_any ref_nh c) through;
      NS.iter
        (fun v ->
          Alcotest.check ns "row" (NS.inter c (Nh.ball ref_nh v)) (Rows.row rows v);
          Alcotest.check ns "carve" (greedy_carve ref_nh c v) (Rows.carve rows v))
        through;
      max widest (NS.cardinal c))
    0
    (Scliques_core.Enumerate.sorted_results Scliques_core.Enumerate.Cs2_p g ~s)

(* a BA graph whose node 0 is joined to 70 more nodes: at s = 2 the
   sets around it pass 63 members, so their rows take two words *)
let hub_graph () =
  let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 5) ~n:150 ~m_attach:2 in
  G.of_edges ~n:150 (List.init 70 (fun i -> (0, (2 * i) + 1)) @ G.edges g)

let test_rows_hub () =
  List.iter
    (fun s ->
      let widest = every_carve (hub_graph ()) ~s in
      if s >= 2 && widest <= 63 then Alcotest.failf "s=%d: widest set %d <= 63" s widest)
    [ 1; 2; 3 ]

let test_rows_families () =
  let rng = Scoll.Rng.create 11 in
  List.iter
    (fun g -> List.iter (fun s -> ignore (every_carve g ~s : int)) [ 1; 2; 3 ])
    [
      Sgraph.Gen.erdos_renyi_gnm rng ~n:50 ~m:100;
      Sgraph.Gen.barabasi_albert rng ~n:50 ~m_attach:2;
      Sgraph.Gen.watts_strogatz rng ~n:50 ~k:4 ~beta:0.2;
    ]

let suites =
  [
    ( "extend_max_diff",
      [
        prop_interleaved;
        prop_across_invalidate;
        prop_after_refusal;
        prop_shared;
        Alcotest.test_case "rows and carves of every set, |C| > 63" `Quick test_rows_hub;
        Alcotest.test_case "rows and carves of every set, ER/SF/WS" `Quick
          test_rows_families;
      ] );
  ]
