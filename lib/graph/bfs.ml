(* Contextful bounds checks for the pairwise entry points: without them,
   [distance g v v] would report 0 for ids the graph does not even
   contain (the equality shortcut fires before any array access), and
   non-equal out-of-range ids would escape as a bare Invalid_argument
   "index out of bounds" from the distance array. *)
let check_node g fn v =
  if v < 0 || v >= Graph.n g then
    invalid_arg (Printf.sprintf "Bfs.%s: node %d out of range (n=%d)" fn v (Graph.n g))

let distances g src =
  check_node g "distances" src;
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Scoll.Fifo_queue.create () in
  dist.(src) <- 0;
  Scoll.Fifo_queue.push queue src;
  while not (Scoll.Fifo_queue.is_empty queue) do
    let v = Scoll.Fifo_queue.pop queue in
    Graph.iter_neighbors
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Scoll.Fifo_queue.push queue u
        end)
      g v
  done;
  dist

exception Reached of int

let distance g src dst =
  check_node g "distance" src;
  check_node g "distance" dst;
  if src = dst then 0
  else
    let n = Graph.n g in
    let dist = Array.make n (-1) in
    let queue = Scoll.Fifo_queue.create () in
    dist.(src) <- 0;
    Scoll.Fifo_queue.push queue src;
    try
      while not (Scoll.Fifo_queue.is_empty queue) do
        let v = Scoll.Fifo_queue.pop queue in
        Graph.iter_neighbors
          (fun u ->
            if dist.(u) < 0 then begin
              dist.(u) <- dist.(v) + 1;
              if u = dst then raise (Reached dist.(u));
              Scoll.Fifo_queue.push queue u
            end)
          g v
      done;
      -1
    with Reached d -> d

(* Visited marks for the bounded traversals, in O(ball) memory rather
   than an O(n) distance array: an open-addressing set of node ids
   (linear probing, -1 = empty, at most half full) beside one flat
   buffer holding every admitted id in discovery order. A
   depth-synchronous BFS reads each depth's frontier as the buffer range
   the previous depth appended, so a traversal is two int arrays -- no
   per-entry boxes, no polymorphic hashing, no lists. *)
type marks = {
  mutable slots : int array; (* length a power of two *)
  mutable found : int array; (* admitted ids, discovery order *)
  mutable len : int;
}

let marks_create () = { slots = Array.make 64 (-1); found = Array.make 32 0; len = 0 }

(* multiplicative hash: the middle bits of the product mix every id bit *)
let hash v mask = ((v * 0x9E3779B1) lsr 16) land mask

(* the slot holding [v], or the empty slot where it belongs *)
let rec probe (slots : int array) mask (v : int) i =
  let x = slots.(i) in
  if x = v || x < 0 then i else probe slots mask v ((i + 1) land mask)

let rehash m =
  let slots = Array.make (2 * Array.length m.slots) (-1) in
  let mask = Array.length slots - 1 in
  for k = 0 to m.len - 1 do
    let v = m.found.(k) in
    slots.(probe slots mask v (hash v mask)) <- v
  done;
  m.slots <- slots

(* admit [v] unless already marked *)
let visit m (v : int) =
  let mask = Array.length m.slots - 1 in
  let i = probe m.slots mask v (hash v mask) in
  if m.slots.(i) < 0 then begin
    m.slots.(i) <- v;
    if m.len = Array.length m.found then begin
      let found = Array.make (2 * m.len) 0 in
      Array.blit m.found 0 found 0 m.len;
      m.found <- found
    end;
    m.found.(m.len) <- v;
    m.len <- m.len + 1;
    if 2 * m.len > Array.length m.slots then rehash m
  end

(* Depth-synchronous BFS from [srcs], [radius] hops deep: [expand m x]
   visits the nodes one hop from [x] that the traversal may enter. *)
let traverse ~expand ~srcs ~radius =
  let m = marks_create () in
  List.iter (visit m) srcs;
  let lo = ref 0 and depth = ref 0 in
  while !depth < radius && !lo < m.len do
    incr depth;
    let hi = m.len in
    for k = !lo to hi - 1 do
      expand m m.found.(k)
    done;
    lo := hi
  done;
  m

let ball g v ~radius =
  if radius < 0 then invalid_arg "Bfs.ball: negative radius";
  if radius > 0 then check_node g "ball" v;
  let csr = Graph.csr g in
  let off = Csr.offsets csr and adj = Csr.adjacency csr in
  (* the N^s cache's miss path: rows straight off the CSR arrays, with
     no closure call per neighbor *)
  let expand m x =
    for j = off.(x) to off.(x + 1) - 1 do
      visit m adj.(j)
    done
  in
  let m = traverse ~expand ~srcs:[ v ] ~radius in
  Node_set.of_array (Array.sub m.found 1 (m.len - 1))

(* Traversal scratch for the balls an owner takes over and over (the
   N^s oracle's misses, a staged fingerprinter): an n-bit visited set,
   32 bits per word as in [Scoll.Bitset], and a discovery buffer with
   the merge space its sort needs. Every call leaves all three all-zero,
   so the next call starts without an O(n) clear. *)
type scratch = {
  cap : int; (* node ids below [cap] fit [seen] *)
  seen : int array; (* visited bits, [(cap + 31) / 32] words *)
  mutable buf : int array; (* discovery order, then the sorted ball *)
  mutable tmp : int array; (* merge space of the sort *)
}

let scratch n =
  if n < 0 then invalid_arg "Bfs.scratch: negative capacity";
  { cap = n; seen = Array.make ((n + 31) lsr 5) 0; buf = Array.make 64 0; tmp = [||] }

let is_clear sc =
  let zero (a : int array) = Array.for_all (fun x -> x = 0) a in
  zero sc.seen && zero sc.buf && zero sc.tmp

(* BFS from [v] on the CSR arrays, [radius] hops deep: marks every
   reached node in [seen] and appends it to [buf], [v] first. Returns
   the number reached. *)
let fill sc ~(off : int array) ~(adj : int array) v radius =
  let seen = sc.seen in
  seen.(v lsr 5) <- seen.(v lsr 5) lor (1 lsl (v land 31));
  sc.buf.(0) <- v;
  let len = ref 1 and lo = ref 0 and depth = ref 0 in
  while !depth < radius && !lo < !len do
    incr depth;
    let hi = !len in
    for k = !lo to hi - 1 do
      let x = sc.buf.(k) in
      for j = off.(x) to off.(x + 1) - 1 do
        let u = adj.(j) in
        let w = u lsr 5 and bit = 1 lsl (u land 31) in
        let word = seen.(w) in
        if word land bit = 0 then begin
          seen.(w) <- word lor bit;
          if !len = Array.length sc.buf then begin
            let bigger = Array.make (2 * !len) 0 in
            Array.blit sc.buf 0 bigger 0 !len;
            sc.buf <- bigger
          end;
          sc.buf.(!len) <- u;
          incr len
        end
      done
    done;
    lo := hi
  done;
  !len

(* Moves the [k] nodes [fill] reached, minus the source, into
   [buf.(0 .. k-2)] in ascending order, and zeroes [seen]: every visited
   word holds only reached nodes, so one store per node clears them; the
   last node takes the source's slot and the discovery order is sorted. *)
let collect sc k =
  let seen = sc.seen and buf = sc.buf in
  for i = 0 to k - 1 do
    seen.(buf.(i) lsr 5) <- 0
  done;
  buf.(0) <- buf.(k - 1);
  if k - 1 > 16 && Array.length sc.tmp < k - 1 then
    sc.tmp <- Array.make (Array.length buf) 0;
  Node_set.sort_ints buf ~tmp:sc.tmp 0 (k - 1)

(* zero what a call of [k] reached wrote: the buffer, and the merge
   space, which a sort of fewer than [k] entries used a prefix of *)
let wipe sc k =
  Array.fill sc.buf 0 k 0;
  Array.fill sc.tmp 0 (min k (Array.length sc.tmp)) 0

let with_ball sc g v ~radius f =
  if radius < 0 then invalid_arg "Bfs.ball: negative radius";
  if Graph.n g > sc.cap then
    invalid_arg
      (Printf.sprintf "Bfs.with_ball: scratch for %d nodes, graph has %d" sc.cap
         (Graph.n g));
  if radius = 0 then f sc.buf 0
  else begin
    check_node g "ball" v;
    let csr = Graph.csr g in
    let k = fill sc ~off:(Csr.offsets csr) ~adj:(Csr.adjacency csr) v radius in
    collect sc k;
    match f sc.buf (k - 1) with
    | r ->
        wipe sc k;
        r
    | exception e ->
        wipe sc k;
        raise e
  end

let ball_on sc g v ~radius =
  with_ball sc g v ~radius (fun buf len ->
      Node_set.of_sorted_array_unchecked (Array.sub buf 0 len))

(* The closed multi-source ball over any adjacency representation: the
   churn path walks balls in a batch's *intermediate* graphs, which live
   as [Overlay]s that never get compacted — so the row walk is a
   parameter instead of a [Graph.t]. *)
let ball_multi_rows ~iter_row ~n ~srcs ~radius =
  if radius < 0 then invalid_arg "Bfs.ball_multi: negative radius";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Bfs.ball_multi: node %d out of range (n=%d)" v n))
    srcs;
  let m = traverse ~expand:(fun m x -> iter_row (visit m) x) ~srcs ~radius in
  Node_set.of_array (Array.sub m.found 0 m.len)

let ball_multi g ~srcs ~radius =
  ball_multi_rows
    ~iter_row:(fun f v -> Graph.iter_neighbors f g v)
    ~n:(Graph.n g) ~srcs ~radius

let ball_within g ~universe v ~radius =
  if radius < 0 then invalid_arg "Bfs.ball_within: negative radius";
  if not (Node_set.mem v universe) then
    invalid_arg "Bfs.ball_within: source outside universe";
  let expand m x =
    Graph.iter_neighbors (fun u -> if Node_set.mem u universe then visit m u) g x
  in
  let m = traverse ~expand ~srcs:[ v ] ~radius in
  Node_set.of_array (Array.sub m.found 1 (m.len - 1))

let reachable_within g ~universe v =
  if not (Node_set.mem v universe) then
    invalid_arg "Bfs.reachable_within: source outside universe";
  Node_set.add v (ball_within g ~universe v ~radius:(Node_set.cardinal universe))

let is_connected_subset g u =
  match Node_set.cardinal u with
  | 0 | 1 -> true
  | k ->
      let reached = reachable_within g ~universe:u (Node_set.min_elt u) in
      Node_set.cardinal reached = k
