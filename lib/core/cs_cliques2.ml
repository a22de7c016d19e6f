module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* R ∪ {v} must sit inside one connected component of
   G[R ∪ {v} ∪ (P ∩ N^s(v))] for v to ever reach a connected s-clique
   together with R (§5.3). BFS from v restricted to that universe. *)
let feasible nh r v p_cap_ball =
  let g = Neighborhood.graph nh in
  let universe = Node_set.add v (Node_set.union r p_cap_ball) in
  let reached = Sgraph.Bfs.reachable_within g ~universe v in
  Node_set.subset r reached

type pivot_rule = Min_uncovered | First_candidate

let select_pivot nh rule p candidates =
  if Node_set.is_empty candidates then None
  else
    match rule with
    | First_candidate -> Some (Node_set.min_elt candidates)
    | Min_uncovered ->
        (* smallest |P − N^s(u)|; ties go to the smaller node id (first
           scanned) for determinism. P is loaded into the mask ONCE and
           each candidate's ball scanned against it — |ball(u)| reads per
           candidate, no per-candidate mask reload — using
           |P − ball(u)| = |P| − |ball(u) ∩ P|. *)
        let p_mask = Neighborhood.load_mask nh p in
        let p_size = Node_set.cardinal p in
        let best = ref (-1) and best_cost = ref max_int in
        Node_set.iter
          (fun u ->
            let covered =
              Node_set.inter_bitset_cardinal (Neighborhood.ball nh u) p_mask
            in
            let cost = p_size - covered in
            if cost < !best_cost then begin
              best := u;
              best_cost := cost
            end)
          candidates;
        Some !best

type root_order = Ascending | Power_degeneracy

let c_incr = function None -> () | Some c -> Scliques_obs.Counters.incr c

let c_add c n = match c with None -> () | Some c -> Scliques_obs.Counters.add c n

let c_set_max c n = match c with None -> () | Some c -> Scliques_obs.Counters.set_max c n

(* One node of the recursion tree, as movable state. *)
type task = {
  depth : int;
  r : Node_set.t;
  p : Node_set.t;
  x : Node_set.t;
  frontier : Node_set.t; (* N^{∃,1}(R), maintained as a running union *)
}

let task_depth t = t.depth

let task_width t = Node_set.cardinal t.p

type runner = {
  nh : Neighborhood.t;
  pivot : bool;
  pivot_rule : pivot_rule;
  feasibility : bool;
  min_size : int;
  should_continue : unit -> bool;
  obs : Scliques_obs.Obs.t option;
  c_calls : Scliques_obs.Counters.counter option;
  c_depth : Scliques_obs.Counters.counter option;
  c_emits : Scliques_obs.Counters.counter option;
  c_pivot_prunes : Scliques_obs.Counters.counter option;
  c_feas_prunes : Scliques_obs.Counters.counter option;
  yield : Node_set.t -> unit;
}

let make_runner ?(pivot = false) ?(pivot_rule = Min_uncovered) ?(feasibility = false)
    ?(min_size = 0) ?(should_continue = fun () -> true) ?obs nh yield =
  let ctr name = Option.map (fun o -> Scliques_obs.Obs.counter o name) obs in
  (match obs with None -> () | Some o -> Scliques_obs.Obs.reset_clock o);
  {
    nh;
    pivot;
    pivot_rule;
    feasibility;
    min_size;
    should_continue;
    obs;
    c_calls = ctr "cs2.calls";
    c_depth = ctr "cs2.max_depth";
    c_emits = ctr "cs2.emits";
    c_pivot_prunes = ctr "cs2.pivot_prunes";
    c_feas_prunes = ctr "cs2.feasibility_prunes";
    yield;
  }

(* The single visit step shared by the sequential recursion and the
   work-stealing task expansion, so the task tree IS the recursion tree:
   emit R when it is a maximal connected s-clique, then hand each child
   state to [child] in branch order. Every child state is fully computed
   before [child] sees it, so the set of children — and hence the emitted
   multiset — does not depend on when or where the children run. *)
let visit rn ~child { depth; r; p; x; frontier } =
  let nh = rn.nh in
  let g = Neighborhood.graph nh in
  c_incr rn.c_calls;
  c_set_max rn.c_depth depth;
  if rn.should_continue () && Node_set.cardinal r + Node_set.cardinal p >= rn.min_size
  then begin
    let r_empty = Node_set.is_empty r in
    (* paper's convention: N^{∃,1}(∅) is the whole node set *)
    let p_adj, x_adj =
      if r_empty then (p, x)
      else begin
        (* one mask load of the frontier filters both P and X *)
        let m = Neighborhood.load_mask nh frontier in
        (Node_set.inter_bitset p m, Node_set.inter_bitset x m)
      end
    in
    if
      Node_set.is_empty p_adj
      && Node_set.is_empty x_adj
      && (not r_empty)
      && Node_set.cardinal r >= rn.min_size
      && Sgraph.Bfs.is_connected_subset g r
    then begin
      c_incr rn.c_emits;
      (match rn.obs with None -> () | Some o -> Scliques_obs.Obs.tick o);
      rn.yield r
    end;
    let branchable =
      if not rn.pivot then p
      else if r_empty then p (* a pivot must neighbor R: none exists yet *)
      else
        (* the candidate pivots (P ∪ X) ∩ N^{∃,1}(R) are exactly
           p_adj ∪ x_adj — both already frontier-filtered above *)
        match select_pivot nh rn.pivot_rule p (Node_set.union p_adj x_adj) with
        | None ->
            (* no node of P ∪ X touches R: R cannot grow connectedly,
               and disconnected growth can never reconnect either *)
            c_add rn.c_pivot_prunes (Node_set.cardinal p);
            Node_set.empty
        | Some u ->
            let kept = Node_set.diff_bitset p (Neighborhood.ball_mask nh u) in
            c_add rn.c_pivot_prunes (Node_set.cardinal p - Node_set.cardinal kept);
            kept
    in
    let p = ref p and x = ref x in
    Node_set.iter
      (fun v ->
        (* the ball mask filters P and X together; both child sets must be
           read off before anything below reloads the scratch *)
        let m = Neighborhood.ball_mask nh v in
        let p_cap_ball = Node_set.inter_bitset !p m in
        let x_cap_ball = Node_set.inter_bitset !x m in
        if rn.feasibility && (not r_empty) && not (feasible nh r v p_cap_ball)
        then begin
          c_incr rn.c_feas_prunes;
          p := Node_set.remove v !p
        end
        else begin
          child
            {
              depth = depth + 1;
              r = Node_set.add v r;
              p = p_cap_ball;
              x = x_cap_ball;
              frontier = Node_set.union frontier (Graph.neighbor_set g v);
            };
          p := Node_set.remove v !p;
          x := Node_set.add v !x
        end)
      branchable
  end

let rec run_task rn t = visit rn ~child:(fun c -> run_task rn c) t

let expand_task rn t =
  let acc = ref [] in
  visit rn ~child:(fun c -> acc := c :: !acc) t;
  List.rev !acc

let root_task nh root =
  let p, x = Neighborhood.root_split nh root in
  {
    depth = 0;
    r = Node_set.singleton root;
    p;
    x;
    frontier = Graph.neighbor_set (Neighborhood.graph nh) root;
  }

let iter ?pivot ?pivot_rule ?feasibility ?(root_order = Ascending) ?min_size
    ?should_continue ?obs nh yield =
  let rn = make_runner ?pivot ?pivot_rule ?feasibility ?min_size ?should_continue ?obs nh
      yield
  in
  let g = Neighborhood.graph nh in
  (match root_order with
  | Ascending ->
      run_task rn
        {
          depth = 0;
          r = Node_set.empty;
          p = Graph.nodes g;
          x = Node_set.empty;
          frontier = Node_set.empty;
        }
  | Power_degeneracy ->
      (* branch the root in a degeneracy order of G^s: each root call's P
         is v's later s-neighbors, X its earlier ones — exactly the state
         the ascending root loop would reach, but with |P| bounded by the
         s-degeneracy instead of the max ball size *)
      let gs = Sgraph.Power.power g ~s:(Neighborhood.s nh) in
      let order = Sgraph.Degeneracy.ordering gs in
      let position = Array.make (Graph.n g) 0 in
      Array.iteri (fun i v -> position.(v) <- i) order;
      Array.iter
        (fun v ->
          if rn.should_continue () then begin
            let ball_v = Neighborhood.ball nh v in
            let later = Node_set.filter (fun u -> position.(u) > position.(v)) ball_v in
            let earlier = Node_set.filter (fun u -> position.(u) < position.(v)) ball_v in
            run_task rn
              {
                depth = 0;
                r = Node_set.singleton v;
                p = later;
                x = earlier;
                frontier = Graph.neighbor_set g v;
              }
          end)
        order);
  match obs with None -> () | Some _ -> Neighborhood.sync_obs nh
