module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* The visit step's inner tests run on the oracle's scratch
   ([Neighborhood.scratch]): the [frontier] bitset, all-zero between
   calls, and the [cand] buffer, whose contents mean nothing between
   calls. Each kernel below sets bits, reads them, and zeroes the words it
   touched before it returns, so none does O(n) work and no scratch state
   lives across a [child] or [yield] call. *)

(* SAFETY: the scratch words are only read and written through checked
   [.()]; every kernel restores the all-zero invariant before returning *)
let scratch_words (sc : Neighborhood.scratch) =
  (Scoll.Bitset.unsafe_words sc.frontier [@lint.allow "unsafe-allowlist"])

let set_bits (words : int array) s =
  for i = 0 to Node_set.cardinal s - 1 do
    let x = Node_set.nth s i in
    words.(x lsr 5) <- words.(x lsr 5) lor (1 lsl (x land 31))
  done

let zero_words (words : int array) s =
  for i = 0 to Node_set.cardinal s - 1 do
    words.(Node_set.nth s i lsr 5) <- 0
  done

(* BFS from [src] over the nodes whose bit is set in [words] ([src]'s
   own bit clear), clearing each bit as its node is queued, so no node
   is queued twice. True as soon as [need] queued nodes are members of
   [r]; false when the queue runs dry first. Bits it did not reach stay
   set. [queue] must hold one entry more than there are set bits. *)
let reaches ~(off : int array) ~(adj : int array) (words : int array)
    (queue : int array) r ~src ~need =
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and found = ref 0 in
  while !found < need && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let j = ref off.(u) and stop = off.(u + 1) in
    while !found < need && !j < stop do
      let w = adj.(!j) in
      let i = w lsr 5 and bit = 1 lsl (w land 31) in
      let word = words.(i) in
      if word land bit <> 0 then begin
        words.(i) <- word lxor bit;
        queue.(!tail) <- w;
        incr tail;
        if Node_set.mem w r then incr found
      end;
      incr j
    done
  done;
  !found >= need

(* Does a BFS from [src] inside G[R ∪ {src} ∪ extra] reach every member
   of R other than [src]? It runs over the bits of R and [extra] and
   zeroes their words before returning. *)
let reaches_r nh r ~src extra =
  let sc = Neighborhood.scratch nh in
  let csr = Graph.csr (Neighborhood.graph nh) in
  let words = scratch_words sc in
  set_bits words r;
  set_bits words extra;
  words.(src lsr 5) <- words.(src lsr 5) land lnot (1 lsl (src land 31));
  let nr = Node_set.cardinal r in
  sc.cand <- Neighborhood.reserve sc.cand (1 + nr + Node_set.cardinal extra);
  let ok =
    reaches ~off:(Sgraph.Csr.offsets csr) ~adj:(Sgraph.Csr.adjacency csr) words sc.cand
      r ~src
      ~need:(if Node_set.mem src r then nr - 1 else nr)
  in
  zero_words words r;
  zero_words words extra;
  ok

(* R ∪ {v} must sit inside one connected component of
   G[R ∪ {v} ∪ (P ∩ N^s(v))] for v to ever reach a connected s-clique
   together with R (§5.3): a BFS from v that stops once it has reached
   every member of R. *)
let feasible nh r v p_cap_ball = reaches_r nh r ~src:v p_cap_ball

(* [Bfs.is_connected_subset] on the same kernel *)
let connected nh r =
  Node_set.cardinal r <= 1 || reaches_r nh r ~src:(Node_set.min_elt r) Node_set.empty

(* Write the candidates (P ∪ X) ∩ N^{∃,1}(R) to the scratch's [cand]
   buffer in ascending order and return their number. N^{∃,1}(R) is R's
   CSR rows scattered into the scratch bitset, zeroed again before the
   return; stray members of R in it are harmless, as P and X are disjoint
   from R. *)
let adjacent_candidates nh r p x =
  let sc = Neighborhood.scratch nh in
  let csr = Graph.csr (Neighborhood.graph nh) in
  let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
  let words = scratch_words sc in
  let nr = Node_set.cardinal r in
  (* SAFETY: the scratch bitset is sized to Graph.n and every neighbor id
     is a valid node id, so all bit indices are below capacity; the
     [off..off+len) slice is a CSR row, in bounds by construction *)
  for i = 0 to nr - 1 do
    let v = Node_set.nth r i in
    (Scoll.Bitset.unsafe_add_sub sc.frontier adj ~off:off.(v)
       ~len:(off.(v + 1) - off.(v)) [@lint.allow "unsafe-allowlist"])
  done;
  let np = Node_set.cardinal p and nx = Node_set.cardinal x in
  sc.cand <- Neighborhood.reserve sc.cand (np + nx);
  let cand = sc.cand in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < np || !j < nx do
    let u =
      if !j >= nx || (!i < np && Node_set.nth p !i < Node_set.nth x !j) then begin
        incr i;
        Node_set.nth p (!i - 1)
      end
      else begin
        incr j;
        Node_set.nth x (!j - 1)
      end
    in
    if words.(u lsr 5) land (1 lsl (u land 31)) <> 0 then begin
      cand.(!k) <- u;
      incr k
    end
  done;
  for i = 0 to nr - 1 do
    Neighborhood.zero_row words ~off ~adj (Node_set.nth r i)
  done;
  !k

type pivot_rule = Min_uncovered | First_candidate

(* the pivot among the [n >= 1] candidates in [cand], ascending *)
let select_pivot nh rule (cand : int array) n p =
  match rule with
  | First_candidate -> cand.(0)
  | Min_uncovered ->
      (* smallest |P − N^s(u)|; ties go to the smaller node id (first
         scanned) for determinism. P is loaded into the mask ONCE and
         each candidate's ball scanned against it — |ball(u)| reads per
         candidate, no per-candidate mask reload — using
         |P − ball(u)| = |P| − |ball(u) ∩ P|. Binary-searching P's
         members in the balls at least 16 times larger than P, ExtendMax's
         filter rule, was no faster on the dblp proxy, where it took a
         third of the scores (EXPERIMENTS.md). *)
      let p_mask = Neighborhood.load_mask nh p in
      let p_size = Node_set.cardinal p in
      let best = ref (-1) and best_cost = ref max_int in
      for i = 0 to n - 1 do
        let u = cand.(i) in
        let cost =
          p_size - Node_set.inter_bitset_cardinal (Neighborhood.ball nh u) p_mask
        in
        if cost < !best_cost then begin
          best := u;
          best_cost := cost
        end
      done;
      !best

type root_order = Ascending | Power_degeneracy

let c_incr = function None -> () | Some c -> Scliques_obs.Counters.incr c

let c_add c n = match c with None -> () | Some c -> Scliques_obs.Counters.add c n

let c_set_max c n = match c with None -> () | Some c -> Scliques_obs.Counters.set_max c n

(* One node of the recursion tree, as movable state. R is never empty:
   every task descends from a root task. *)
type task = { depth : int; r : Node_set.t; p : Node_set.t; x : Node_set.t }

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
let visit rn ~child { depth; r; p; x } =
  let nh = rn.nh in
  c_incr rn.c_calls;
  c_set_max rn.c_depth depth;
  if rn.should_continue () && Node_set.cardinal r + Node_set.cardinal p >= rn.min_size
  then begin
    (* R is maximal when no node of P ∪ X touches it *)
    let ncand = adjacent_candidates nh r p x in
    if ncand = 0 && Node_set.cardinal r >= rn.min_size && connected nh r then begin
      c_incr rn.c_emits;
      (match rn.obs with None -> () | Some o -> Scliques_obs.Obs.tick o);
      rn.yield r
    end;
    let branchable =
      if not rn.pivot then p
      else if ncand = 0 then begin
        (* no node of P ∪ X touches R: R cannot grow connectedly, and
           disconnected growth can never reconnect either *)
        c_add rn.c_pivot_prunes (Node_set.cardinal p);
        Node_set.empty
      end
      else
        (* the candidate pivots (P ∪ X) ∩ N^{∃,1}(R) are in [cand] *)
        let u = select_pivot nh rn.pivot_rule (Neighborhood.scratch nh).cand ncand p in
        let kept = Node_set.diff_bitset p (Neighborhood.ball_mask nh u) in
        c_add rn.c_pivot_prunes (Node_set.cardinal p - Node_set.cardinal kept);
        kept
    in
    let p = ref p and x = ref x in
    Node_set.iter
      (fun v ->
        (* the ball mask filters P and X together; both child sets must be
           read off before anything below reloads the mask (the
           feasibility test runs on the scratch bitset, not the mask) *)
        let m = Neighborhood.ball_mask nh v in
        let p_cap_ball = Node_set.inter_bitset !p m in
        if rn.feasibility && not (feasible nh r v p_cap_ball) then begin
          c_incr rn.c_feas_prunes;
          p := Node_set.remove v !p
        end
        else begin
          child
            {
              depth = depth + 1;
              r = Node_set.add v r;
              p = p_cap_ball;
              x = Node_set.inter_bitset !x m;
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
  { depth = 0; r = Node_set.singleton root; p; x }

let candidates nh t =
  let n = adjacent_candidates nh t.r t.p t.x in
  Node_set.of_sorted_array_unchecked (Array.sub (Neighborhood.scratch nh).cand 0 n)

let pivot_of nh rule t =
  let n = adjacent_candidates nh t.r t.p t.x in
  if n = 0 then None
  else Some (select_pivot nh rule (Neighborhood.scratch nh).cand n t.p)

let iter ?pivot ?pivot_rule ?feasibility ?(root_order = Ascending) ?min_size
    ?should_continue ?obs nh yield =
  let rn = make_runner ?pivot ?pivot_rule ?feasibility ?min_size ?should_continue ?obs nh
      yield
  in
  let g = Neighborhood.graph nh in
  (match root_order with
  | Ascending ->
      (* the branch on each root in turn, as [Enumerate.run] runs them *)
      for v = 0 to Graph.n g - 1 do
        run_task rn (root_task nh v)
      done
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
            run_task rn { depth = 0; r = Node_set.singleton v; p = later; x = earlier }
          end)
        order);
  match obs with None -> () | Some _ -> Neighborhood.sync_obs nh
