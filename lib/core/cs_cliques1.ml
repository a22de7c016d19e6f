module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

let c_incr = function None -> () | Some c -> Scliques_obs.Counters.incr c

let c_set_max c n = match c with None -> () | Some c -> Scliques_obs.Counters.set_max c n

let make_recurse ~min_size ~should_continue ?obs nh yield =
  let g = Neighborhood.graph nh in
  let ctr name = Option.map (fun o -> Scliques_obs.Obs.counter o name) obs in
  let c_calls = ctr "cs1.calls" in
  let c_depth = ctr "cs1.max_depth" in
  let c_emits = ctr "cs1.emits" in
  (match obs with None -> () | Some o -> Scliques_obs.Obs.reset_clock o);
  (* frontier = N^{∃,1}(R) maintained incrementally as a running union of
     member neighborhoods; stray R-members inside it are harmless because
     P and X are always disjoint from R *)
  let rec recurse depth r p x frontier =
    c_incr c_calls;
    c_set_max c_depth depth;
    if should_continue () && Node_set.cardinal r + Node_set.cardinal p >= min_size
    then begin
      (* paper's convention: N^{∃,1}(∅) is the whole node set *)
      let p_adj, x_adj =
        if Node_set.is_empty r then (p, x)
        else begin
          (* one mask load of the frontier filters both P and X *)
          let m = Neighborhood.load_mask nh frontier in
          (Node_set.inter_bitset p m, Node_set.inter_bitset x m)
        end
      in
      if
        Node_set.is_empty p_adj
        && Node_set.is_empty x_adj
        && (not (Node_set.is_empty r))
        && Node_set.cardinal r >= min_size
      then begin
        c_incr c_emits;
        (match obs with None -> () | Some o -> Scliques_obs.Obs.tick o);
        yield r
      end;
      let branchable = p_adj in
      let p = ref p and x = ref x in
      Node_set.iter
        (fun v ->
          (* the ball mask filters P and X together; the recursion below
             reuses the scratch, so both must be computed before it *)
          let m = Neighborhood.ball_mask nh v in
          let p' = Node_set.inter_bitset !p m in
          let x' = Node_set.inter_bitset !x m in
          recurse (depth + 1) (Node_set.add v r) p' x'
            (Node_set.union frontier (Graph.neighbor_set g v));
          p := Node_set.remove v !p;
          x := Node_set.add v !x)
        branchable
    end
  in
  recurse

let iter ?(min_size = 0) ?(should_continue = fun () -> true) ?obs nh yield =
  let g = Neighborhood.graph nh in
  let recurse = make_recurse ~min_size ~should_continue ?obs nh yield in
  recurse 0 Node_set.empty (Graph.nodes g) Node_set.empty Node_set.empty;
  match obs with None -> () | Some _ -> Neighborhood.sync_obs nh

let root_runner ?(min_size = 0) ?(should_continue = fun () -> true) ?obs nh yield =
  let g = Neighborhood.graph nh in
  let recurse = make_recurse ~min_size ~should_continue ?obs nh yield in
  fun root ->
    (* exactly the state the full run's top-level loop hands the branch on
       [root]: by then every u < root has moved from P to X, and the child
       P/X are filtered through ball(root) — so this subtree emits
       precisely the maximal connected s-cliques whose minimum node is
       [root] *)
    let p, x = Neighborhood.root_split nh root in
    recurse 1 (Node_set.singleton root) p x (Graph.neighbor_set g root)
