(* Visit-step differential of the rooted engines: the dense kernels of
   [Cs_cliques2] (the feasibility BFS, the connectivity check on the same
   BFS, the pivot candidates (P ∪ X) ∩ N^{∃,1}(R), pivot scoring, and the
   children a visit hands out under each rule, CsCliques1's included)
   against the set-algebra formulation they replaced, kept here as the
   reference. The reference reads only the public oracle operators and
   allocates fresh sets, so it has no universe or row store to get wrong.
   The states are real visits: each case walks the recursion tree with
   [expand_task]. The whole CsCliques1 recursion the runner's [Cs1] rule
   replaced is kept here too, and its emissions and counters are checked
   against whole runs. *)

module NS = Sgraph.Node_set
module G = Sgraph.Graph
module Nh = Scliques_core.Neighborhood
module Cs2 = Scliques_core.Cs_cliques2
module E = Scliques_core.Enumerate

module Reference = struct
  let feasible nh r v p_cap_ball =
    let g = Nh.graph nh in
    let universe = NS.add v (NS.union r p_cap_ball) in
    let reached = Sgraph.Bfs.reachable_within g ~universe v in
    NS.subset r reached

  (* N^{∃,1}(R) as the running union of neighbor rows a task carried *)
  let frontier nh r =
    NS.fold (fun v acc -> NS.union acc (G.neighbor_set (Nh.graph nh) v)) r NS.empty

  let candidates nh (r, p, x) =
    let f = frontier nh r in
    NS.union (NS.inter p f) (NS.inter x f)

  let pivot_of nh rule ((_, p, _) as t) =
    let candidates = candidates nh t in
    if NS.is_empty candidates then None
    else
      match rule with
      | Cs2.First_candidate -> Some (NS.min_elt candidates)
      | Cs2.Min_uncovered ->
          let best = ref (-1) and best_cost = ref max_int in
          NS.iter
            (fun u ->
              let cost = NS.diff_cardinal p (Nh.ball nh u) in
              if cost < !best_cost then begin
                best := u;
                best_cost := cost
              end)
            candidates;
          Some !best

  (* what a visit under [rule] emits and the children it hands out, in
     branch order *)
  let visit nh rule ((r, p, x) as t) =
    let maximal = NS.is_empty (candidates nh t) in
    let emitted, branchable, feasibility =
      match rule with
      | Cs2.Cs1 ->
          (* R stays connected: no print-time check, and only the nodes
             of P that touch R are branched on *)
          ((if maximal then [ r ] else []), NS.inter p (frontier nh r), false)
      | Cs2.Cs2 { pivot; feasibility } ->
          let emitted =
            if maximal && Sgraph.Bfs.is_connected_subset (Nh.graph nh) r then [ r ]
            else []
          in
          let branchable =
            match pivot with
            | None -> p
            | Some rule -> (
                match pivot_of nh rule t with
                | None -> NS.empty
                | Some u -> NS.diff p (Nh.ball nh u))
          in
          (emitted, branchable, feasibility)
    in
    let p = ref p and x = ref x and children = ref [] in
    NS.iter
      (fun v ->
        let ball = Nh.ball nh v in
        let p_cap = NS.inter !p ball in
        if not (feasibility && not (feasible nh r v p_cap)) then begin
          children := (NS.add v r, p_cap, NS.inter !x ball) :: !children;
          x := NS.add v !x
        end;
        p := NS.remove v !p)
      branchable;
    (emitted, List.rev !children)

  (* CsCliques1 (paper Fig. 6) as a whole recursion on set algebra, the
     reference for the runner's [Cs1] rule: the branch on root [v] puts
     every node of N^s(v) below [v] in X and the rest in P, and carries
     the frontier N^{∃,1}(R) as a running union of neighbor rows.
     [run_root] runs one root's branch; [counters ()] reads cs1.calls,
     cs1.emits and cs1.max_depth, the root call at depth 1. *)
  let cs1 ~min_size ~should_continue nh yield =
    let g = Nh.graph nh in
    let calls = ref 0 and emits = ref 0 and max_depth = ref 0 in
    let rec recurse depth r p x frontier =
      incr calls;
      max_depth := max !max_depth depth;
      if should_continue () && NS.cardinal r + NS.cardinal p >= min_size then begin
        let p_adj = NS.inter p frontier in
        if NS.is_empty p_adj && NS.is_empty (NS.inter x frontier) && NS.cardinal r >= min_size
        then begin
          incr emits;
          yield r
        end;
        let p = ref p and x = ref x in
        NS.iter
          (fun v ->
            let ball = Nh.ball nh v in
            recurse (depth + 1) (NS.add v r) (NS.inter !p ball) (NS.inter !x ball)
              (NS.union frontier (G.neighbor_set g v));
            p := NS.remove v !p;
            x := NS.add v !x)
          p_adj
      end
    in
    let run_root v =
      let ball = Nh.ball nh v in
      recurse 1 (NS.singleton v)
        (NS.filter (fun u -> u > v) ball)
        (NS.filter (fun u -> u < v) ball)
        (G.neighbor_set g v)
    in
    (run_root, fun () -> (!calls, !emits, !max_depth))
end

let sets t = (Cs2.task_r t, Cs2.task_p t, Cs2.task_x t)

let agree_bool what expected got =
  if not (Bool.equal expected got) then
    QCheck2.Test.fail_reportf "%s: reference %b, dense %b" what expected got

let pp_state ppf (r, p, x) = Fmt.pf ppf "R=%a P=%a X=%a" NS.pp r NS.pp p NS.pp x

(* Every kernel on state [t], run in runner [rn], against the reference
   on its own oracle [ref_nh]: the pivot candidates, both pivot rules,
   connectivity of R and of R plus one node of P, and feasibility of up
   to eight branch nodes. *)
let check_state ~ref_nh rn t =
  let ((r, p, _) as st) = sets t in
  let got = Cs2.candidates rn t in
  let expected = Reference.candidates ref_nh st in
  if not (NS.equal expected got) then
    QCheck2.Test.fail_reportf "candidates %a: reference %a, dense %a" pp_state st NS.pp
      expected NS.pp got;
  List.iter
    (fun rule ->
      let got = Cs2.pivot_of rn rule t in
      let expected = Reference.pivot_of ref_nh rule st in
      if not (Option.equal Int.equal expected got) then
        QCheck2.Test.fail_reportf "pivot %a: reference %a, dense %a" pp_state st
          Fmt.(Dump.option int) expected Fmt.(Dump.option int) got)
    [ Cs2.Min_uncovered; Cs2.First_candidate ];
  let g = Nh.graph ref_nh in
  let conn u =
    agree_bool "connected" (Sgraph.Bfs.is_connected_subset g u) (Cs2.connected rn t u)
  in
  conn r;
  if not (NS.is_empty p) then conn (NS.add (NS.choose p) r);
  for i = 0 to min 8 (NS.cardinal p) - 1 do
    let v = NS.nth p i in
    let p_cap_ball = NS.inter p (Nh.ball ref_nh v) in
    agree_bool "feasible" (Reference.feasible ref_nh r v p_cap_ball) (Cs2.feasible rn t v)
  done

(* A runner whose emissions land in [emitted], and its visit of [t]
   checked against the reference visit: the same emission and the same
   children, in the same order, one level deeper. *)
let expander ~rule ~ref_nh nh =
  let emitted = ref [] in
  let rn = Cs2.make_runner ~rule nh (fun c -> emitted := c :: !emitted) in
  let expand t =
    let st = sets t in
    emitted := [];
    let children = Cs2.expand_task rn t in
    let exp_emitted, exp_children = Reference.visit ref_nh rule st in
    if not (List.equal NS.equal exp_emitted !emitted) then
      QCheck2.Test.fail_reportf "emission at %a differs" pp_state st;
    let same (r, p, x) c =
      Int.equal (Cs2.task_depth c) (Cs2.task_depth t + 1)
      &&
      let r', p', x' = sets c in
      NS.equal r r' && NS.equal p p' && NS.equal x x'
    in
    if
      not
        (Int.equal (List.length exp_children) (List.length children)
        && List.for_all2 same exp_children children)
    then
      QCheck2.Test.fail_reportf "children of %a: reference %d, dense %d" pp_state st
        (List.length exp_children) (List.length children);
    children
  in
  (rn, expand)

let shuffled_roots rng g =
  let order = Array.init (G.n g) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Scoll.Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.sub order 0 (min 24 (G.n g))

(* Up to [budget] states of the recursion trees of up to 24 roots in a
   seed-shuffled order, the budget split evenly between the roots, so
   consecutive roots switch the runner to unrelated universes: each
   state is checked, then expanded by a real visit. *)
let walk ~budget roots expand f =
  let left = ref 0 in
  let rec go t =
    if !left > 0 then begin
      decr left;
      f t;
      List.iter go (expand t)
    end
  in
  List.iter
    (fun t ->
      left := max 1 (budget / List.length roots);
      go t)
    roots

(* Graphs of up to 160 nodes, as in extend_max_diff: universes of up to
   160 nodes span several words, and a graph whose universes fit in one
   word would hide a word-index slip. *)
let arb_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 1 3 >>= fun s ->
  int_range 2 160 >>= fun n ->
  int_range 0 (3 * n) >>= fun m ->
  (* CS1 and the four CS2 variants, equally likely *)
  frequency
    [
      (1, return Cs2.Cs1);
      ( 4,
        bool >>= fun pivot ->
        bool >>= fun feasibility ->
        return
          (Cs2.Cs2 { pivot = (if pivot then Some Cs2.Min_uncovered else None); feasibility })
      );
    ]
  >>= fun rule ->
  int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed, rule)

let print_rule = function
  | Cs2.Cs1 -> "cs1"
  | Cs2.Cs2 { pivot; feasibility } ->
      Printf.sprintf "cs2 pivot=%b feasibility=%b" (Option.is_some pivot) feasibility

let print_case (family, n, m, s, seed, rule) =
  Printf.sprintf "%s %s"
    (Test_differential.print_case (family, n, m, s, seed))
    (print_rule rule)

let property name ~count body =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_case arb_case
       (fun (family, n, m, s, seed, rule) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         body (Scoll.Rng.create seed) g s ~rule;
         true))

let root_tasks rng nh =
  List.map (Cs2.root_task nh) (Array.to_list (shuffled_roots rng (Nh.graph nh)))

let prop_one_oracle =
  property "scratch = reference, many calls on one oracle" ~count:150
    (fun rng g s ~rule ->
      let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
      let rn, expand = expander ~rule ~ref_nh nh in
      walk ~budget:300 (root_tasks rng nh) expand (check_state ~ref_nh rn))

let prop_two_oracles =
  property "scratch = reference, two oracles taking turns" ~count:80
    (fun rng g s ~rule ->
      let store = Nh.Shared.create ~s g in
      let a = Nh.of_shared store and b = Nh.of_shared store in
      let ref_nh = Nh.create ~s g in
      let rn_a, expand = expander ~rule ~ref_nh a in
      let rn_b = Cs2.make_runner ~rule b ignore in
      let turn = ref 0 in
      (* the states come from [a]'s visits; every other state is checked
         on [b]'s runner — a task of a universe it did not build, as a
         stolen task is — and a visit on [a] follows each check on [b] *)
      walk ~budget:200 (root_tasks rng a) expand (fun t ->
          incr turn;
          check_state ~ref_nh (if !turn land 1 = 0 then rn_a else rn_b) t))

let prop_interleaved =
  property "dense = reference, roots interleaved on one runner" ~count:80
    (fun rng g s ~rule ->
      let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
      let rn, expand = expander ~rule ~ref_nh nh in
      (* one queue of pending states per root, served round-robin, so
         consecutive visits and kernel calls run in different universes *)
      let queues =
        List.map
          (fun t ->
            let q = Queue.create () in
            Queue.add t q;
            q)
          (root_tasks rng nh)
      in
      let left = ref 300 in
      while !left > 0 && List.exists (fun q -> not (Queue.is_empty q)) queues do
        List.iter
          (fun q ->
            if !left > 0 && not (Queue.is_empty q) then begin
              decr left;
              let t = Queue.pop q in
              check_state ~ref_nh rn t;
              List.iter (fun c -> Queue.add c q) (expand t)
            end)
          queues
      done)

(* Whole CS1 runs: the runner's [Cs1] rule against the recursion it
   replaced ([Reference.cs1]), every root in ascending order. Each run
   must emit the same sets in the same order and count the same
   cs1.calls, cs1.emits and cs1.max_depth, and register no cs2.* counter:
   at min_size 0 and 3, unbudgeted through [Enumerate.run], and on a
   runner whose [should_continue] turns false halfway through the calls
   of the untripped run, inside some root's branch. *)
let prop_cs1_runs =
  let arb =
    let open QCheck2.Gen in
    oneofl [ `Er; `Sf ] >>= fun family ->
    int_range 1 3 >>= fun s ->
    int_range 2 (match s with 1 -> 60 | 2 -> 40 | _ -> 20) >>= fun n ->
    int_range 0 (2 * n) >>= fun m ->
    int_range 0 1_000_000 >>= fun seed -> return (family, n, m, s, seed)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"cs1 runs = reference recursion"
       ~print:Test_differential.print_case arb
       (fun (family, n, m, s, seed) ->
         let g = Test_differential.graph_of_case (family, n, m, seed) in
         let countdown k =
           let left = ref k in
           fun () ->
             decr left;
             !left >= 0
         in
         let reference ~min_size ~should_continue =
           let got = ref [] in
           let run_root, counters =
             Reference.cs1 ~min_size ~should_continue (Nh.create ~s g) (fun c ->
                 got := c :: !got)
           in
           for v = 0 to G.n g - 1 do
             run_root v
           done;
           (List.rev !got, counters ())
         in
         let read obs =
           let c = Scliques_obs.Obs.counters obs in
           let find name = Option.value (Scliques_obs.Counters.find c name) ~default:(-1) in
           if
             List.exists
               (fun (k, _) -> String.starts_with ~prefix:"cs2." k)
               (Scliques_obs.Counters.to_list c)
           then QCheck2.Test.fail_report "a CS1 run registered a cs2.* counter";
           (find "cs1.calls", find "cs1.emits", find "cs1.max_depth")
         in
         let agree what (exp_sets, (ec, ee, ed)) (got_sets, (gc, ge, gd)) =
           if not (List.equal NS.equal exp_sets got_sets) then
             QCheck2.Test.fail_reportf "%s: emissions differ (%d reference, %d runner)"
               what (List.length exp_sets) (List.length got_sets);
           if not (ec = gc && ee = ge && ed = gd) then
             QCheck2.Test.fail_reportf
               "%s: calls/emits/max_depth reference %d/%d/%d, runner %d/%d/%d" what ec ee
               ed gc ge gd
         in
         List.iter
           (fun min_size ->
             let ((_, (calls, _, _)) as full) =
               reference ~min_size ~should_continue:(fun () -> true)
             in
             let obs = Scliques_obs.Obs.create () and got = ref [] in
             let (_ : E.run_report) =
               E.run ~obs ~min_size E.Cs1 g ~s (fun c -> got := c :: !got)
             in
             agree (Printf.sprintf "min_size %d" min_size) full (List.rev !got, read obs);
             let trip = calls / 2 in
             let expected = reference ~min_size ~should_continue:(countdown trip) in
             let obs = Scliques_obs.Obs.create () and got = ref [] in
             let nh = Nh.create ~s g in
             let rn =
               Cs2.make_runner ~rule:Cs2.Cs1 ~min_size ~should_continue:(countdown trip)
                 ~obs nh (fun c -> got := c :: !got)
             in
             for v = 0 to G.n g - 1 do
               Cs2.run_task rn (Cs2.root_task nh v)
             done;
             agree
               (Printf.sprintf "min_size %d, tripped after %d calls" min_size trip)
               expected (List.rev !got, read obs))
           [ 0; 3 ];
         true))

(* Hub graphs whose root universe overflows the row store. s = 1: a star
   with 6,000 leaves, whose hub universe needs one 188-word row per node
   (1.13M words). s = 2: the hub joined to 48 middle nodes with 88
   leaves each, a 4,273-node universe whose ball and adjacency rows need
   2 * 4,273 * 134 words. Each walks the hub's branch with pivoting and
   feasibility, every state and child checked against the reference;
   the store must flush and never outgrow its cap, and the whole answer
   must be the one the construction dictates. *)
let test_row_store_flush () =
  let check_hub ~s g expected =
    let nh = Nh.create ~s g and ref_nh = Nh.create ~s g in
    let rn, expand =
      expander ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = true }) ~ref_nh nh
    in
    walk ~budget:120 [ Cs2.root_task nh 0 ] expand (check_state ~ref_nh rn);
    if Cs2.row_flushes rn = 0 then Alcotest.failf "s=%d: the row store never flushed" s;
    if Cs2.row_store_words rn > Cs2.row_cap then
      Alcotest.failf "s=%d: row store of %d words, cap %d" s (Cs2.row_store_words rn)
        Cs2.row_cap;
    let got = ref [] in
    let (_ : E.run_report) = E.run ~nh E.Cs2_pf g ~s (fun c -> got := c :: !got) in
    Alcotest.check Test_support.ns_list
      (Printf.sprintf "s=%d answer" s)
      (List.sort NS.compare expected) (List.sort NS.compare !got)
  in
  let leaves = 6_000 in
  check_hub ~s:1
    (G.of_edges ~n:(leaves + 1) (List.init leaves (fun i -> (0, i + 1))))
    (List.init leaves (fun i -> NS.of_list [ 0; i + 1 ]));
  let mids = 48 and per = 88 in
  let leaf m j = 1 + mids + (m * per) + j in
  let edges =
    List.concat
      (List.init mids (fun m -> (0, m + 1) :: List.init per (fun j -> (m + 1, leaf m j))))
  in
  check_hub ~s:2
    (G.of_edges ~n:(1 + mids + (mids * per)) edges)
    (NS.of_list (List.init (mids + 1) Fun.id)
    :: List.init mids (fun m -> NS.of_list ([ 0; m + 1 ] @ List.init per (leaf m))))

let test_feasible_allocates_nothing () =
  (* one feasible and one infeasible call from real visits, each with a
     multi-member R and a nonempty P ∩ N^s(v); after a warm-up call has
     filled the rows, 1,000 calls may allocate only the measurement's own
     float boxes *)
  let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 11) ~n:300 ~avg_degree:6. in
  let nh = Nh.create ~s:2 g in
  let rn =
    Cs2.make_runner ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = false }) nh
      ignore
  in
  let found = Hashtbl.create 2 in
  walk ~budget:5_000
    (root_tasks (Scoll.Rng.create 1) nh)
    (Cs2.expand_task rn)
    (fun t ->
      let r = Cs2.task_r t and p = Cs2.task_p t in
      if NS.cardinal r >= 2 then
        NS.iter
          (fun v ->
            let ok = Cs2.feasible rn t v in
            let branching = not (NS.is_empty (NS.inter p (Nh.ball nh v))) in
            if branching && not (Hashtbl.mem found ok) then Hashtbl.add found ok (t, v))
          p);
  List.iter
    (fun ok ->
      match Hashtbl.find_opt found ok with
      | None -> Alcotest.failf "no %b feasibility call in the walk" ok
      | Some (t, v) ->
          ignore (Cs2.feasible rn t v : bool);
          let before = Gc.minor_words () in
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (Cs2.feasible rn t v))
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
        prop_interleaved;
        Alcotest.test_case "row store flushes, answers hold" `Quick test_row_store_flush;
        prop_cs1_runs;
      ] );
  ]
