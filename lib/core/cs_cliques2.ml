module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* Every task of a root branch lives inside the root's closed ball
   U = N^s[root]: the root task's P ∪ X is N^s(root), R = {root}, and a
   child only intersects its parent's sets with a ball. A universe
   numbers U's members by rank, so ascending local ids are ascending
   nodes, and a task's R, P and X are bitsets of ⌈|U|/32⌉ words over
   those ids (32 bits per word, as in Scoll.Bitset). The universe is
   immutable and shared by every task of its root, on every worker. *)
type universe = {
  members : int array; (* U ascending: local id -> node *)
  words : int; (* ⌈|U| / 32⌉ *)
}

let no_universe = { members = [||]; words = 0 }

type task = {
  depth : int;
  universe : universe;
  r : int array;
  p : int array;
  x : int array;
}

(* population count of a word below 2^32, branch-free *)
let[@inline] popcount w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  (((w + (w lsr 4)) land 0x0F0F0F0F) * 0x01010101) lsr 24 land 0xFF

(* index of the lowest set bit of a nonzero word *)
let[@inline] lowest w = popcount ((w land -w) - 1)

(* the number of members in the first [w] words of [a] *)
let card (a : int array) w =
  let c = ref 0 in
  for k = 0 to w - 1 do
    c := !c + popcount a.(k)
  done;
  !c

(* the members of [bits] as nodes, ascending *)
let to_set u (bits : int array) =
  let out = Array.make (card bits u.words) 0 in
  let i = ref 0 in
  for k = 0 to u.words - 1 do
    let m = ref bits.(k) in
    while !m <> 0 do
      out.(!i) <- u.members.((k lsl 5) lor lowest !m);
      incr i;
      m := !m land (!m - 1)
    done
  done;
  Node_set.of_sorted_array_unchecked out

let task_depth t = t.depth

let task_width t = card t.p t.universe.words

let task_r t = to_set t.universe t.r

let task_p t = to_set t.universe t.p

let task_x t = to_set t.universe t.x

(* The root branch of [v]: R = {v}, and each other member u of N^s(v) in
   P when [in_p u], else in X. *)
let make_root nh v ~in_p =
  let ball = Neighborhood.ball nh v in
  let nb = Node_set.cardinal ball in
  let members = Array.make (nb + 1) 0 in
  let rank = ref nb in
  for i = 0 to nb - 1 do
    let u = Node_set.nth ball i in
    if u > v && !rank = nb then rank := i;
    members.(if u > v then i + 1 else i) <- u
  done;
  members.(!rank) <- v;
  let words = (nb + 32) lsr 5 in
  let r = Array.make words 0 and p = Array.make words 0 and x = Array.make words 0 in
  let set (a : int array) i = a.(i lsr 5) <- a.(i lsr 5) lor (1 lsl (i land 31)) in
  set r !rank;
  for i = 0 to nb do
    if i <> !rank then set (if in_p members.(i) then p else x) i
  done;
  { depth = 0; universe = { members; words }; r; p; x }

let root_task nh v = make_root nh v ~in_p:(fun u -> u > v)

type pivot_rule = Min_uncovered | First_candidate

type rule = Cs1 | Cs2 of { pivot : pivot_rule option; feasibility : bool }

let c_incr = function None -> () | Some c -> Scliques_obs.Counters.incr c

let c_add c n = match c with None -> () | Some c -> Scliques_obs.Counters.add c n

let c_set_max c n = match c with None -> () | Some c -> Scliques_obs.Counters.set_max c n

(* A runner searches in one universe at a time: [local_of] maps the
   members of [cur] to their local ids, and the row store caches, per
   local id u, N^s(u) ∩ U (its ball row) and N(u) ∩ U (its adjacency
   row) as [cur.words]-word bitsets in [rows], at the offsets held in
   [ball_slot] / [adj_slot] (-1: not filled yet). Rows are filled on
   first use within a universe; a switch to another universe forgets
   them all. [nbr], [reach] and [queue] hold one kernel call's working
   sets. The frames hold the recursion's state: level l's R, P, X and
   branch set in [fr.(l)], [fp.(l)], [fx.(l)], [fb.(l)] (at least
   [cur.words] words each), so a visit writes its children's sets into
   level l + 1 and the depth-first search allocates none of them. *)
type runner = {
  nh : Neighborhood.t;
  cs1 : bool;
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
  mutable cur : universe;
  local_of : int array; (* node -> local id in [cur]; -1 outside it *)
  mutable ball_slot : int array;
  mutable adj_slot : int array; (* [ball_slot] itself at s = 1, where the rows agree *)
  mutable rows : int array;
  mutable fill : int; (* words of [rows] in use *)
  mutable flushes : int;
  mutable nbr : int array; (* N^{∃,1}(R) of the visit *)
  mutable reach : int array; (* the BFS's unreached nodes *)
  mutable queue : int array; (* the BFS's queue, local ids *)
  mutable fr : int array array;
  mutable fp : int array array;
  mutable fx : int array array;
  mutable fb : int array array;
  mutable kids : task list; (* the children [expand_task] collects *)
}

let make_runner ?(rule = Cs2 { pivot = None; feasibility = false }) ?(min_size = 0)
    ?(should_continue = fun () -> true) ?obs nh yield =
  let cs1, pivot, feasibility =
    match rule with
    | Cs1 -> (true, None, false)
    | Cs2 { pivot; feasibility } -> (false, pivot, feasibility)
  in
  let ctr name = Option.map (fun o -> Scliques_obs.Obs.counter o name) obs in
  let family = if cs1 then "cs1." else "cs2." in
  (match obs with None -> () | Some o -> Scliques_obs.Obs.reset_clock o);
  {
    nh;
    cs1;
    pivot = Option.is_some pivot;
    pivot_rule = Option.value pivot ~default:Min_uncovered;
    feasibility;
    min_size;
    should_continue;
    obs;
    c_calls = ctr (family ^ "calls");
    c_depth = ctr (family ^ "max_depth");
    c_emits = ctr (family ^ "emits");
    (* CS1 neither pivots nor checks feasibility: it registers no prune counter *)
    c_pivot_prunes = (if cs1 then None else ctr "cs2.pivot_prunes");
    c_feas_prunes = (if cs1 then None else ctr "cs2.feasibility_prunes");
    yield;
    cur = no_universe;
    local_of = Array.make (Graph.n (Neighborhood.graph nh)) (-1);
    ball_slot = [||];
    adj_slot = [||];
    rows = [||];
    fill = 0;
    flushes = 0;
    nbr = [||];
    reach = [||];
    queue = [||];
    fr = [||];
    fp = [||];
    fx = [||];
    fb = [||];
    kids = [];
  }

(* The row store never holds more than [row_cap] words (2 MiB), whatever
   the universe: when a row does not fit, every row is forgotten and
   filling starts over. Rows of the same universe are refilled
   identically, so a flush costs time, never answers. Most universes'
   rows fit whole (the seed-1 dblp proxy's largest ball, 1,668 nodes,
   needs 2 * 1,668 * 53 words); the seed-3 proxy's largest, 2,504 nodes,
   flushes 6 times per CS2PF run at no measurable cost, where a 2^20
   cap let the store grow to 6 MiB. A universe above 32 * [row_cap]
   nodes would get a store of exactly one row. *)
let row_cap = 1 lsl 18

let row_flushes rn = rn.flushes

let row_store_words rn = Array.length rn.rows

let forget_rows rn =
  let k = Array.length rn.cur.members in
  Array.fill rn.ball_slot 0 k (-1);
  Array.fill rn.adj_slot 0 k (-1);
  rn.fill <- 0

let grown (a : int array) k =
  if Array.length a >= k then a else Array.make (max k (2 * Array.length a)) 0

(* Make [u] the runner's universe: index its members and forget the rows
   of the previous one. A no-op when [u] already is. *)
let enter rn u =
  if rn.cur != u then begin
    let old = rn.cur.members and local_of = rn.local_of in
    for i = 0 to Array.length old - 1 do
      local_of.(old.(i)) <- -1
    done;
    let k = Array.length u.members in
    for i = 0 to k - 1 do
      local_of.(u.members.(i)) <- i
    done;
    if Array.length rn.ball_slot < k then begin
      rn.ball_slot <- grown rn.ball_slot k;
      rn.adj_slot <-
        (if Neighborhood.s rn.nh = 1 then rn.ball_slot
         else Array.make (Array.length rn.ball_slot) 0)
    end;
    rn.nbr <- grown rn.nbr u.words;
    rn.reach <- grown rn.reach u.words;
    rn.queue <- grown rn.queue k;
    rn.cur <- u;
    forget_rows rn
  end

(* make frame level [l] exist and hold [cur.words] words per set *)
let level rn l =
  if l >= Array.length rn.fr then begin
    let n = max (l + 1) (2 * Array.length rn.fr) in
    let grow a = Array.init n (fun i -> if i < Array.length a then a.(i) else [||]) in
    rn.fr <- grow rn.fr;
    rn.fp <- grow rn.fp;
    rn.fx <- grow rn.fx;
    rn.fb <- grow rn.fb
  end;
  let w = rn.cur.words in
  if Array.length rn.fr.(l) < w then begin
    rn.fr.(l) <- Array.make w 0;
    rn.fp.(l) <- Array.make w 0;
    rn.fx.(l) <- Array.make w 0;
    rn.fb.(l) <- Array.make w 0
  end

(* the offset of a fresh, zeroed row of [cur.words] words *)
let reserve_row rn =
  let w = rn.cur.words in
  if rn.fill + w > Array.length rn.rows then begin
    if rn.fill + w <= row_cap then begin
      let a = Array.make (min row_cap (max (rn.fill + w) (2 * Array.length rn.rows))) 0 in
      Array.blit rn.rows 0 a 0 rn.fill;
      rn.rows <- a
    end
    else begin
      forget_rows rn;
      rn.flushes <- rn.flushes + 1;
      if w > Array.length rn.rows then rn.rows <- Array.make w 0
    end
  end;
  let off = rn.fill in
  rn.fill <- off + w;
  for j = off to off + w - 1 do
    rn.rows.(j) <- 0
  done;
  off

(* N(node) ∩ U, from the node's CSR row *)
let fill_adj rn off node =
  let csr = Graph.csr (Neighborhood.graph rn.nh) in
  let o = Sgraph.Csr.offsets csr and a = Sgraph.Csr.adjacency csr in
  let local_of = rn.local_of and rows = rn.rows in
  for j = o.(node) to o.(node + 1) - 1 do
    let l = local_of.(a.(j)) in
    if l >= 0 then
      rows.(off + (l lsr 5)) <- rows.(off + (l lsr 5)) lor (1 lsl (l land 31))
  done

(* The offset of local id [i]'s ball row, N^s(i) ∩ U, filled on first
   use: at s = 1 from the node's CSR row, at s = 2 from its row and its
   neighbors' rows, above from the oracle's ball. The offset stays valid
   until the next row is filled (a fill may flush the store), so callers
   read a row before they ask for another. *)
let ball_row rn i =
  let off = rn.ball_slot.(i) in
  if off >= 0 then off
  else begin
    let off = reserve_row rn in
    let node = rn.cur.members.(i) in
    (match Neighborhood.s rn.nh with
    | 1 -> fill_adj rn off node
    | 2 ->
        Sgraph.Csr.scatter_ball2
          (Graph.csr (Neighborhood.graph rn.nh))
          node ~rank:rn.local_of ~into:rn.rows ~off
    | _ ->
        Node_set.scatter_ranks (Neighborhood.ball rn.nh node) ~rank:rn.local_of
          ~into:rn.rows ~off);
    rn.ball_slot.(i) <- off;
    off
  end

(* the offset of [i]'s adjacency row, N(i) ∩ U; same validity rule *)
let adj_row rn i =
  let off = rn.adj_slot.(i) in
  if off >= 0 then off
  else begin
    let off = reserve_row rn in
    fill_adj rn off rn.cur.members.(i);
    rn.adj_slot.(i) <- off;
    off
  end

(* BFS from local id [src] through the nodes whose bit is set in [reach]
   ([src]'s own bit clear), reading adjacency rows one word at a time and
   clearing the bits it queues, so no node is queued twice. True as soon
   as [need] queued nodes are members of [r]; false when the queue runs
   dry first. *)
let reaches rn (r : int array) ~src ~need =
  let w = rn.cur.words and reach = rn.reach and queue = rn.queue in
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and found = ref 0 in
  while !found < need && !head < !tail do
    let off = adj_row rn queue.(!head) in
    let rows = rn.rows in
    incr head;
    for k = 0 to w - 1 do
      let m = rows.(off + k) land reach.(k) in
      if m <> 0 then begin
        reach.(k) <- reach.(k) lxor m;
        found := !found + popcount (m land r.(k));
        let m = ref m in
        while !m <> 0 do
          queue.(!tail) <- (k lsl 5) lor lowest !m;
          incr tail;
          m := !m land (!m - 1)
        done
      end
    done
  done;
  !found >= need

(* R ∪ {v} must sit inside one connected component of
   G[R ∪ {v} ∪ (P ∩ N^s(v))] for v to ever reach a connected s-clique
   together with R (§5.3): a BFS from v over [r] and [pcap] (neither
   holds v) that stops once it has reached all [nr] members of R. *)
let feasible_in rn (r : int array) v (pcap : int array) nr =
  let reach = rn.reach in
  for k = 0 to rn.cur.words - 1 do
    reach.(k) <- r.(k) lor pcap.(k)
  done;
  reaches rn r ~src:v ~need:nr

(* [Bfs.is_connected_subset] of the [nr] members of [r], on the same BFS *)
let connected_in rn (r : int array) nr =
  nr <= 1
  ||
  let reach = rn.reach in
  Array.blit r 0 reach 0 rn.cur.words;
  let k = ref 0 in
  while r.(!k) = 0 do
    incr k
  done;
  let src = (!k lsl 5) lor lowest r.(!k) in
  reach.(!k) <- reach.(!k) land lnot (1 lsl (src land 31));
  reaches rn r ~src ~need:(nr - 1)

(* N^{∃,1}(R) into [nbr], the union of R's adjacency rows; returns the
   number of pivot candidates |(P ∪ X) ∩ N^{∃,1}(R)|. Members of R that
   land in [nbr] are harmless: P and X are disjoint from R. *)
let load_frontier rn (r : int array) (p : int array) (x : int array) =
  let w = rn.cur.words and nbr = rn.nbr in
  for j = 0 to w - 1 do
    nbr.(j) <- 0
  done;
  for k = 0 to w - 1 do
    let m = ref r.(k) in
    while !m <> 0 do
      let off = adj_row rn ((k lsl 5) lor lowest !m) in
      let rows = rn.rows in
      for j = 0 to w - 1 do
        nbr.(j) <- nbr.(j) lor rows.(off + j)
      done;
      m := !m land (!m - 1)
    done
  done;
  let n = ref 0 in
  for k = 0 to w - 1 do
    n := !n + popcount ((p.(k) lor x.(k)) land nbr.(k))
  done;
  !n

(* the pivot, as a local id, among the candidates [load_frontier] left in
   [nbr] (at least one); [np] is |P| *)
let select_pivot rn rule (p : int array) (x : int array) np =
  let w = rn.cur.words and nbr = rn.nbr in
  let best = ref (-1) and best_cost = ref max_int in
  (* candidates ascend, so the first one scanned wins a tie: the
     smallest node id, for determinism *)
  let k = ref 0 in
  while !k < w do
    let m = ref ((p.(!k) lor x.(!k)) land nbr.(!k)) in
    while !m <> 0 do
      let u = (!k lsl 5) lor lowest !m in
      m := !m land (!m - 1);
      match rule with
      | First_candidate ->
          best := u;
          m := 0;
          k := w
      | Min_uncovered ->
          (* |P − N^s(u)| = |P| − |P ∩ N^s(u)|, a popcount over u's ball
             row. Once a candidate covers all of P no later one can win,
             so the rest are not scored; their rows are still fetched, so
             the balls asked of the oracle (at s >= 3) are those of a full
             scan *)
          let off = ball_row rn u in
          if !best_cost > 0 then begin
            let rows = rn.rows in
            let covered = ref 0 in
            for j = 0 to w - 1 do
              let m = p.(j) land rows.(off + j) in
              if m <> 0 then covered := !covered + popcount m
            done;
            if np - !covered < !best_cost then begin
              best := u;
              best_cost := np - !covered
            end
          end
    done;
    incr k
  done;
  !best

(* The single visit step shared by the sequential recursion and the
   work-stealing task expansion, so the task tree IS the recursion tree:
   emit R when it is a maximal connected s-clique, then compute each
   child state in branch order and either run it ([expand = false]: the
   depth-first search, one frame level down) or copy it out as a task
   ([expand = true]). Every child state is fully computed before it runs
   or leaves, so the set of children — and hence the emitted multiset —
   does not depend on when or where the children run. The visit's state
   is frame level [l], whose P and X it consumes: each branch leaves P,
   and each one that has a child joins X. The rule sets the branch set:
   P, P minus the pivot's ball, or under CS1 P ∩ N^{∃,1}(R). *)
let rec visit rn ~expand l depth =
  c_incr rn.c_calls;
  (* CS1 counts its root call at depth 1, a root task's depth is 0 *)
  c_set_max rn.c_depth (if rn.cs1 then depth + 1 else depth);
  if rn.should_continue () then begin
    let u = rn.cur in
    let w = u.words in
    let r = rn.fr.(l) and p = rn.fp.(l) and x = rn.fx.(l) in
    let nr = card r w and np = card p w in
    if nr + np >= rn.min_size then begin
      (* R is maximal when no node of P ∪ X touches it; a CS1 R is
         connected by construction *)
      let ncand = load_frontier rn r p x in
      if ncand = 0 && nr >= rn.min_size && (rn.cs1 || connected_in rn r nr) then begin
        c_incr rn.c_emits;
        (match rn.obs with None -> () | Some o -> Scliques_obs.Obs.tick o);
        rn.yield (to_set u r)
      end;
      if rn.pivot && ncand = 0 then
        (* no node of P ∪ X touches R: R cannot grow connectedly, and
           disconnected growth can never reconnect either *)
        c_add rn.c_pivot_prunes np
      else begin
        let branchable =
          if rn.pivot then begin
            let off = ball_row rn (select_pivot rn rn.pivot_rule p x np) in
            let rows = rn.rows and b = rn.fb.(l) in
            for k = 0 to w - 1 do
              b.(k) <- p.(k) land lnot rows.(off + k)
            done;
            c_add rn.c_pivot_prunes (np - card b w);
            b
          end
          else if rn.cs1 then begin
            (* CS1 branches on P ∩ N^{∃,1}(R) only, so R stays connected.
               A child's visit overwrites [nbr]: the level keeps a copy *)
            let nbr = rn.nbr and b = rn.fb.(l) in
            for k = 0 to w - 1 do
              b.(k) <- p.(k) land nbr.(k)
            done;
            b
          end
          else p
        in
        level rn (l + 1);
        let cr = rn.fr.(l + 1) and cp = rn.fp.(l + 1) and cx = rn.fx.(l + 1) in
        for k = 0 to w - 1 do
          (* the word is read once, so clearing branched bits of [p] (which
             may be [branchable]) does not disturb the scan *)
          let m = ref branchable.(k) in
          while !m <> 0 do
            let bit = !m land - !m in
            m := !m lxor bit;
            let v = (k lsl 5) lor lowest bit in
            let off = ball_row rn v in
            let rows = rn.rows in
            for j = 0 to w - 1 do
              cp.(j) <- p.(j) land rows.(off + j)
            done;
            if rn.feasibility && not (feasible_in rn r v cp nr) then
              c_incr rn.c_feas_prunes
            else begin
              (* the BFS may have refilled the store: ask for the row again *)
              let off = ball_row rn v in
              let rows = rn.rows in
              for j = 0 to w - 1 do
                cx.(j) <- x.(j) land rows.(off + j);
                cr.(j) <- r.(j)
              done;
              cr.(k) <- cr.(k) lor bit;
              if expand then
                rn.kids <-
                  {
                    depth = depth + 1;
                    universe = u;
                    r = Array.sub cr 0 w;
                    p = Array.sub cp 0 w;
                    x = Array.sub cx 0 w;
                  }
                  :: rn.kids
              else visit rn ~expand (l + 1) (depth + 1);
              x.(k) <- x.(k) lor bit
            end;
            p.(k) <- p.(k) lxor bit
          done
        done
      end
    end
  end

(* [t]'s state into frame level 0, in [t]'s universe *)
let load rn t =
  enter rn t.universe;
  level rn 0;
  let w = t.universe.words in
  Array.blit t.r 0 rn.fr.(0) 0 w;
  Array.blit t.p 0 rn.fp.(0) 0 w;
  Array.blit t.x 0 rn.fx.(0) 0 w

let run_task rn t =
  load rn t;
  visit rn ~expand:false 0 t.depth

let expand_task rn t =
  load rn t;
  rn.kids <- [];
  visit rn ~expand:true 0 t.depth;
  let kids = rn.kids in
  rn.kids <- [];
  List.rev kids

(* the local id of [v] in [t]'s universe, entered *)
let local_id rn t v =
  enter rn t.universe;
  let l = if v >= 0 && v < Array.length rn.local_of then rn.local_of.(v) else -1 in
  if l < 0 then invalid_arg "Cs_cliques2: node outside the task's universe";
  l

let candidates rn t =
  enter rn t.universe;
  ignore (load_frontier rn t.r t.p t.x : int);
  to_set t.universe
    (Array.init t.universe.words (fun k -> (t.p.(k) lor t.x.(k)) land rn.nbr.(k)))

let pivot_of rn rule t =
  enter rn t.universe;
  if load_frontier rn t.r t.p t.x = 0 then None
  else
    Some t.universe.members.(select_pivot rn rule t.p t.x (card t.p t.universe.words))

let feasible rn t v =
  let i = local_id rn t v in
  if t.p.(i lsr 5) land (1 lsl (i land 31)) = 0 then
    invalid_arg "Cs_cliques2.feasible: node outside the task's P";
  (* P ∩ N^s(v) where a visit puts it: in the next frame level's P *)
  level rn 1;
  let off = ball_row rn i in
  let rows = rn.rows and pcap = rn.fp.(1) in
  for j = 0 to t.universe.words - 1 do
    pcap.(j) <- t.p.(j) land rows.(off + j)
  done;
  feasible_in rn t.r i pcap (card t.r t.universe.words)

let universe_ball rn t v =
  let off = ball_row rn (local_id rn t v) in
  to_set t.universe (Array.sub rn.rows off t.universe.words)

let connected rn t set =
  let bits = Array.make t.universe.words 0 in
  Node_set.iter
    (fun v ->
      let l = local_id rn t v in
      bits.(l lsr 5) <- bits.(l lsr 5) lor (1 lsl (l land 31)))
    set;
  connected_in rn bits (Node_set.cardinal set)

(* footnote 1's root order; a root's task costs a ball, so none is
   built once [should_continue] says stop *)
let run_degeneracy rn =
  let g = Neighborhood.graph rn.nh in
  let gs = Sgraph.Power.power g ~s:(Neighborhood.s rn.nh) in
  let order = Sgraph.Degeneracy.ordering gs in
  let position = Array.make (Graph.n g) 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
  Array.iter
    (fun v ->
      if rn.should_continue () then
        run_task rn (make_root rn.nh v ~in_p:(fun u -> position.(u) > position.(v))))
    order
