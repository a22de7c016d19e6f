module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* ExtendMax runs one greedy loop over the oracle's scratch
   ([Neighborhood.scratch]); apart from the buffers' amortized growth,
   building the result is the only allocation.

   - [cand.(0 .. len-1)] holds the candidates N^{∀,s}(result), in
     ascending order. They start as the ball of the seed's smallest
     member minus the seed, and every ball of a member filters them in
     place. A ball excludes its center, so no member of the result is
     ever a candidate.
   - [frontier] is the union of the members' CSR rows. As candidates
     exclude the result, the eligible nodes N^{∀,s} ∩ N^{∃,1} are exactly
     the candidates with their frontier bit set, and the first one in
     [cand] is the smallest. The frontier is all-zero between calls: a
     call zeroes the words of the rows it scattered, never the whole
     bitset.

   [Neighborhood.ball] is asked for the seed members in ascending order
   and then once per new member, as the set-algebra formulation does
   (ball_forall, then one ball per step), so the cache sees the same
   lookups in the same order. *)

(* A filter either binary-searches each candidate in the ball,
   O(len log |ball|), or loads the ball into the mask, O(|ball|) plus
   clearing the previous load; it searches when the candidates are this
   many times fewer than the ball's members. Measured on PD's first 1,000
   results on ER n=10K, degree 10, s=2 (2-core Xeon): 60% of filters
   search at this cut, PD ran 1.3x slower with the mask alone and 1.5x
   slower with the search alone, and cuts of 4 and 64 were no faster. *)
let search_ratio = 16

(* keep the candidates that lie in [ball], in place; the new length *)
let keep_within nh (cand : int array) len ball =
  let k = ref 0 in
  if len * search_ratio <= Node_set.cardinal ball then
    for i = 0 to len - 1 do
      let x = cand.(i) in
      if Node_set.mem x ball then begin
        cand.(!k) <- x;
        incr k
      end
    done
  else if len > 0 then begin
    (* SAFETY: read-only; every index below goes through a checked
       [.()] on the mask's word array *)
    let words =
      (Scoll.Bitset.unsafe_words (Neighborhood.load_mask nh ball)
      [@lint.allow "unsafe-allowlist"])
    in
    for i = 0 to len - 1 do
      let x = cand.(i) in
      if words.(x lsr 5) land (1 lsl (x land 31)) <> 0 then begin
        cand.(!k) <- x;
        incr k
      end
    done
  end;
  !k

(* the first candidate whose frontier bit is set, or -1 *)
let rec first_eligible (words : int array) (cand : int array) len i =
  if i >= len then -1
  else
    let x = cand.(i) in
    if words.(x lsr 5) land (1 lsl (x land 31)) <> 0 then x
    else first_eligible words cand len (i + 1)

(* Grow the nonempty [seed] to a maximal set: the candidates start as
   the ball of its smallest member minus the seed, filtered by the
   balls of the other members. *)
let grow nh seed =
  let sc = Neighborhood.scratch nh in
  let k0 = Node_set.cardinal seed in
  let pool = Neighborhood.ball nh (Node_set.nth seed 0) in
  let np = Node_set.cardinal pool in
  sc.cand <- Neighborhood.reserve sc.cand np;
  let cand = sc.cand in
  (* pool minus seed, one merge pass over the two sorted sets *)
  let len = ref 0 and j = ref 0 in
  for i = 0 to np - 1 do
    let x = Node_set.nth pool i in
    while !j < k0 && Node_set.nth seed !j < x do
      incr j
    done;
    if !j >= k0 || Node_set.nth seed !j <> x then begin
      cand.(!len) <- x;
      incr len
    end
  done;
  for i = 1 to k0 - 1 do
    len := keep_within nh cand !len (Neighborhood.ball nh (Node_set.nth seed i))
  done;
  sc.members <- Neighborhood.reserve sc.members (k0 + !len);
  let members = sc.members in
  let csr = Graph.csr (Neighborhood.graph nh) in
  let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
  (* SAFETY: the frontier's words are only read and written through
     checked [.()]; [Neighborhood.zero_row] below restores the all-zero
     invariant *)
  let words =
    (Scoll.Bitset.unsafe_words sc.frontier [@lint.allow "unsafe-allowlist"])
  in
  (* SAFETY (both scatters): the frontier is sized to Graph.n and every
     neighbor id is a valid node id, so all bit indices are below
     capacity; the [off..off+len) slice is a CSR row, in bounds by
     construction *)
  for i = 0 to k0 - 1 do
    let v = Node_set.nth seed i in
    members.(i) <- v;
    (Scoll.Bitset.unsafe_add_sub sc.frontier adj ~off:off.(v)
       ~len:(off.(v + 1) - off.(v)) [@lint.allow "unsafe-allowlist"])
  done;
  let k = ref k0 in
  let v = ref (first_eligible words cand !len 0) in
  while !v >= 0 do
    let u = !v in
    members.(!k) <- u;
    incr k;
    (Scoll.Bitset.unsafe_add_sub sc.frontier adj ~off:off.(u)
       ~len:(off.(u + 1) - off.(u)) [@lint.allow "unsafe-allowlist"]);
    len := keep_within nh cand !len (Neighborhood.ball nh u);
    v := first_eligible words cand !len 0
  done;
  for i = 0 to !k - 1 do
    Neighborhood.zero_row words ~off ~adj members.(i)
  done;
  if !k = k0 then seed else Node_set.of_array (Array.sub members 0 !k)

let in_graph nh c =
  if Graph.n (Neighborhood.graph nh) = 0 then Node_set.empty
  else grow nh (if Node_set.is_empty c then Node_set.singleton 0 else c)
