(* CSCliques2 visit-step differential: the scratch kernels of
   [Cs_cliques2] (the feasibility BFS, the connectivity check on the same
   kernel, the P/X filter by N^{∃,1}(R) and pivot scoring) against the
   set-algebra formulation they replaced, kept here as the reference. The
   reference reads only the public oracle operators and allocates fresh
   sets, so it has no scratch to get wrong. The states are real visits:
   each case walks the recursion tree with [expand_task]. *)

module NS = Sgraph.Node_set
module G = Sgraph.Graph
module Nh = Scliques_core.Neighborhood
module Cs2 = Scliques_core.Cs_cliques2

module Reference = struct
  let feasible nh r v p_cap_ball =
    let g = Nh.graph nh in
    let universe = NS.add v (NS.union r p_cap_ball) in
    let reached = Sgraph.Bfs.reachable_within g ~universe v in
    NS.subset r reached

  (* N^{∃,1}(R) as the running union of neighbor rows a task carried *)
  let frontier nh r =
    NS.fold (fun v acc -> NS.union acc (G.neighbor_set (Nh.graph nh) v)) r NS.empty

  let candidates nh (t : Cs2.task) =
    let m = Nh.load_mask nh (frontier nh t.r) in
    NS.union (NS.inter_bitset t.p m) (NS.inter_bitset t.x m)

  let pivot_of nh rule (t : Cs2.task) =
    let candidates = candidates nh t in
    if NS.is_empty candidates then None
    else
      match rule with
      | Cs2.First_candidate -> Some (NS.min_elt candidates)
      | Cs2.Min_uncovered ->
          let p_mask = Nh.load_mask nh t.p in
          let p_size = NS.cardinal t.p in
          let best = ref (-1) and best_cost = ref max_int in
          NS.iter
            (fun u ->
              let cost = p_size - NS.inter_bitset_cardinal (Nh.ball nh u) p_mask in
              if cost < !best_cost then begin
                best := u;
                best_cost := cost
              end)
            candidates;
          Some !best
end

let scratch_clean what nh =
  if not (Scoll.Bitset.is_empty (Nh.scratch nh).frontier) then
    QCheck2.Test.fail_reportf "%s left bits set in the scratch bitset" what

let agree_bool what expected got =
  if not (Bool.equal expected got) then
    QCheck2.Test.fail_reportf "%s: reference %b, scratch %b" what expected got

(* Every kernel on state [t] of oracle [nh] against the reference on its
   own oracle [ref_nh], with the scratch checked all-zero after each
   call: the pivot candidates, both pivot rules, connectivity of R and of
   R plus one node of P, and feasibility of up to eight branch nodes. *)
let check_state ~ref_nh nh (t : Cs2.task) =
  let got = Cs2.candidates nh t in
  scratch_clean "candidates" nh;
  let expected = Reference.candidates ref_nh t in
  if not (NS.equal expected got) then
    QCheck2.Test.fail_reportf "candidates R=%a: reference %a, scratch %a" NS.pp t.r NS.pp
      expected NS.pp got;
  List.iter
    (fun rule ->
      let got = Cs2.pivot_of nh rule t in
      scratch_clean "pivot_of" nh;
      let expected = Reference.pivot_of ref_nh rule t in
      if not (Option.equal Int.equal expected got) then
        QCheck2.Test.fail_reportf "pivot R=%a P=%a: reference %a, scratch %a" NS.pp t.r
          NS.pp t.p Fmt.(Dump.option int) expected Fmt.(Dump.option int) got)
    [ Cs2.Min_uncovered; Cs2.First_candidate ];
  let g = Nh.graph nh in
  let conn u =
    let got = Cs2.connected nh u in
    scratch_clean "connected" nh;
    agree_bool "connected" (Sgraph.Bfs.is_connected_subset g u) got
  in
  conn t.r;
  if not (NS.is_empty t.p) then conn (NS.add (NS.choose t.p) t.r);
  for i = 0 to min 8 (NS.cardinal t.p) - 1 do
    let v = NS.nth t.p i in
    let p_cap_ball = NS.inter t.p (Nh.ball nh v) in
    let got = Cs2.feasible nh t.r v p_cap_ball in
    scratch_clean "feasible" nh;
    agree_bool "feasible" (Reference.feasible ref_nh t.r v p_cap_ball) got
  done

(* Up to [budget] states of the recursion trees of up to 24 roots in a
   seed-shuffled order, the budget split evenly between the roots, so
   consecutive calls reuse the scratch on unrelated regions of the graph:
   each state is checked, then expanded by a real visit. *)
let walk ~pivot ~feasibility ~budget rng nh f =
  let rn = Cs2.make_runner ~pivot ~feasibility nh ignore in
  let g = Nh.graph nh in
  let order = Array.init (G.n g) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Scoll.Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let roots = Array.sub order 0 (min 24 (G.n g)) in
  let left = ref 0 in
  let rec go t =
    if !left > 0 then begin
      decr left;
      f t;
      List.iter go (Cs2.expand_task rn t)
    end
  in
  Array.iter
    (fun v ->
      left := max 1 (budget / Array.length roots);
      go (Cs2.root_task nh v))
    roots

(* Graphs of up to 160 nodes, as in extend_max_diff: the scratch bitset
   packs 32 ids per word, and a graph that fits in one or two words would
   hide a bit left set (any other reset zeroes the same word). *)
let arb_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 1 3 >>= fun s ->
  int_range 2 160 >>= fun n ->
  int_range 0 (3 * n) >>= fun m ->
  bool >>= fun pivot ->
  bool >>= fun feasibility ->
  int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed, pivot, feasibility)

let print_case (family, n, m, s, seed, pivot, feasibility) =
  Printf.sprintf "%s pivot=%b feasibility=%b"
    (Test_differential.print_case (family, n, m, s, seed))
    pivot feasibility

let property name ~count body =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_case arb_case
       (fun (family, n, m, s, seed, pivot, feasibility) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         body (Scoll.Rng.create seed) g s ~pivot ~feasibility;
         true))

let prop_one_oracle =
  property "scratch = reference, many calls on one oracle" ~count:150
    (fun rng g s ~pivot ~feasibility ->
      let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
      walk ~pivot ~feasibility ~budget:300 rng nh (check_state ~ref_nh nh))

let prop_two_oracles =
  property "scratch = reference, two oracles taking turns" ~count:80
    (fun rng g s ~pivot ~feasibility ->
      let store = Nh.Shared.create ~s g in
      let a = Nh.of_shared store and b = Nh.of_shared store in
      let ref_nh = Nh.create ~s g in
      let turn = ref 0 in
      (* the states come from [a]'s visits; every other state is checked
         on [b], and a visit on [a] follows each check on [b] *)
      walk ~pivot ~feasibility ~budget:200 rng a (fun t ->
          incr turn;
          check_state ~ref_nh (if !turn land 1 = 0 then a else b) t;
          scratch_clean "the other oracle" (if !turn land 1 = 0 then b else a)))

let test_feasible_allocates_nothing () =
  (* one feasible and one infeasible call from real visits, each with a
     multi-member R and a nonempty P ∩ N^s(v); after a warm-up call has
     sized the scratch buffer, 1,000 calls may allocate only the
     measurement's own float boxes *)
  let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 11) ~n:300 ~avg_degree:6. in
  let nh = Nh.create ~s:2 g in
  let found = Hashtbl.create 2 in
  walk ~pivot:true ~feasibility:false ~budget:5_000 (Scoll.Rng.create 1) nh
    (fun (t : Cs2.task) ->
      if NS.cardinal t.r >= 2 then
        NS.iter
          (fun v ->
            let p_cap_ball = NS.inter t.p (Nh.ball nh v) in
            let ok = Cs2.feasible nh t.r v p_cap_ball in
            if (not (NS.is_empty p_cap_ball)) && not (Hashtbl.mem found ok) then
              Hashtbl.add found ok (t.r, v, p_cap_ball))
          t.p);
  List.iter
    (fun ok ->
      match Hashtbl.find_opt found ok with
      | None -> Alcotest.failf "no %b feasibility call in the walk" ok
      | Some (r, v, p_cap_ball) ->
          let before = Gc.minor_words () in
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (Cs2.feasible nh r v p_cap_ball))
          done;
          let w = Gc.minor_words () -. before in
          if w > 16. then
            Alcotest.failf "feasible = %b: %.0f minor words for 1,000 calls" ok w)
    [ true; false ]

let suites =
  [
    ( "cs2_visit_diff",
      [
        prop_one_oracle;
        prop_two_oracles;
        Alcotest.test_case "1,000 feasibility calls allocate nothing" `Quick
          test_feasible_allocates_nothing;
      ] );
  ]
