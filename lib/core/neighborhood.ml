module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* weight ≈ heap bytes of a cached ball: the sorted id array (one word
   per member) plus record/array headers *)
let ball_weight b = (8 * Node_set.cardinal b) + 32

(* A cached ball N^s(k) changes iff k lies within distance s of a
   touched endpoint in the old graph (a path it used was cut) or in the
   new one (a path it gains) — so the stale key set is exactly the union
   of the closed radius-s balls of [touched] in both graphs. Everything
   else stays warm. *)
let drop_stale cache ~before ~after ~s ~touched =
  match touched with
  | [] -> ()
  | _ :: _ when s = 1 -> () (* s = 1 reads rows straight off the graph *)
  | _ :: _ ->
      let stale =
        Node_set.union
          (Sgraph.Bfs.ball_multi before ~srcs:touched ~radius:s)
          (Sgraph.Bfs.ball_multi after ~srcs:touched ~radius:s)
      in
      let doomed =
        Scoll.Lri_cache.fold
          (fun k _ acc -> if Node_set.mem k stale then k :: acc else acc)
          cache []
      in
      List.iter (Scoll.Lri_cache.remove cache) doomed

module Shared = struct
  type store = {
    lock : Mutex.t;
    mutable st_graph : Graph.t;
    mutable st_epoch : int;
    st_s : int;
    st_cache : Node_set.t Scoll.Lri_cache.t;
  }

  let create ?(cache_capacity = 65536) ~s graph =
    if s < 1 then invalid_arg "Neighborhood.Shared.create: s must be >= 1";
    {
      lock = Mutex.create ();
      st_graph = graph;
      st_epoch = 0;
      st_s = s;
      st_cache = Scoll.Lri_cache.create ~weight:ball_weight ~capacity:cache_capacity ();
    }

  let graph st = Scoll.Sync.with_lock st.lock (fun () -> st.st_graph)

  let s st = st.st_s

  let epoch st = Scoll.Sync.with_lock st.lock (fun () -> st.st_epoch)

  let bytes st =
    Scoll.Sync.with_lock st.lock (fun () -> Scoll.Lri_cache.total_weight st.st_cache)

  let length st =
    Scoll.Sync.with_lock st.lock (fun () -> Scoll.Lri_cache.length st.st_cache)

  let stats st = Scoll.Sync.with_lock st.lock (fun () -> Scoll.Lri_cache.stats st.st_cache)

  let recount_bytes st =
    Scoll.Sync.with_lock st.lock (fun () ->
        Scoll.Lri_cache.fold (fun _ b acc -> acc + ball_weight b) st.st_cache 0)

  let invalidate st ~after ~touched =
    Scoll.Sync.with_lock st.lock (fun () ->
        if Graph.n after <> Graph.n st.st_graph then
          invalid_arg "Neighborhood.Shared.invalidate: node counts differ";
        drop_stale st.st_cache ~before:st.st_graph ~after ~s:st.st_s ~touched;
        st.st_graph <- after;
        st.st_epoch <- st.st_epoch + 1)

  let advance st ~after ~touched =
    Scoll.Sync.with_lock st.lock (fun () ->
        if Graph.n after <> Graph.n st.st_graph then
          invalid_arg "Neighborhood.Shared.advance: node counts differ";
        let next =
          {
            lock = Mutex.create ();
            st_graph = after;
            st_epoch = st.st_epoch + 1;
            st_s = st.st_s;
            st_cache =
              Scoll.Lri_cache.create ~weight:ball_weight
                ~capacity:(Scoll.Lri_cache.capacity st.st_cache) ();
          }
        in
        (* copy forward every ball the churn locality proof keeps valid
           (the complement of drop_stale's stale set); [next] is private
           until returned, so filling its cache needs no lock *)
        (match touched with
        | _ when st.st_s = 1 -> () (* s = 1 reads rows straight off the graph *)
        | [] ->
            Scoll.Lri_cache.fold
              (fun k b () -> Scoll.Lri_cache.add next.st_cache k b)
              st.st_cache ()
        | _ :: _ ->
            let stale =
              Node_set.union
                (Sgraph.Bfs.ball_multi st.st_graph ~srcs:touched ~radius:st.st_s)
                (Sgraph.Bfs.ball_multi after ~srcs:touched ~radius:st.st_s)
            in
            Scoll.Lri_cache.fold
              (fun k b () ->
                if not (Node_set.mem k stale) then
                  Scoll.Lri_cache.add next.st_cache k b)
              st.st_cache ());
        next)
end

type backend =
  | Private of Node_set.t Scoll.Lri_cache.t
  | Shared_store of Shared.store * int (* the store, and its epoch at attach *)

type scratch = {
  mutable cand : int array;
  mutable members : int array;
  frontier : Scoll.Bitset.t;
}

type t = {
  mutable graph : Graph.t; (* swapped by [invalidate] after edge churn *)
  mutable epoch : int;
  s : int;
  backend : backend;
  obs : Scliques_obs.Obs.t option;
  c_bfs : Scliques_obs.Counters.counter option;
      (* resolved once at creation so each cached-miss BFS costs one add *)
  mask : Scoll.Bitset.t;
      (* scratch membership mask over the node ids, loaded with one ball
         at a time and filtered against with O(1) word-indexed tests;
         invalidated by the next load *)
  mutable mask_loaded : Node_set.t; (* current mask contents, for O(|prev|) clears *)
  acc : Scoll.Bitset.t; (* scratch accumulator for unions (adjacent_any) *)
  scratch : scratch; (* ExtendMax's working state, see the mli *)
  bfs : Sgraph.Bfs.scratch; (* the cache misses' traversal, all-zero between calls *)
}

let make ~backend ~obs ~s graph epoch =
  {
    graph;
    epoch;
    s;
    backend;
    obs;
    c_bfs = Option.map (fun o -> Scliques_obs.Obs.counter o "nh.bfs_expansions") obs;
    mask = Scoll.Bitset.create (Graph.n graph);
    mask_loaded = Node_set.empty;
    acc = Scoll.Bitset.create (Graph.n graph);
    scratch =
      { cand = [||]; members = [||]; frontier = Scoll.Bitset.create (Graph.n graph) };
    bfs = Sgraph.Bfs.scratch (Graph.n graph);
  }

let create ?(cache_capacity = 65536) ?obs ~s graph =
  if s < 1 then invalid_arg "Neighborhood.create: s must be >= 1";
  let cache = Scoll.Lri_cache.create ~weight:ball_weight ~capacity:cache_capacity () in
  make ~backend:(Private cache) ~obs ~s graph 0

let of_shared ?obs store =
  let graph, epoch =
    Scoll.Sync.with_lock store.Shared.lock (fun () ->
        (store.Shared.st_graph, store.Shared.st_epoch))
  in
  make ~backend:(Shared_store (store, epoch)) ~obs ~s:store.Shared.st_s graph epoch

let graph t = t.graph

let s t = t.s

let epoch t = t.epoch

let stale t =
  match t.backend with
  | Private _ -> false
  | Shared_store (st, birth) -> Shared.epoch st <> birth

let invalidate t ~after ~touched =
  match t.backend with
  | Shared_store _ ->
      invalid_arg
        "Neighborhood.invalidate: shared-backed oracle (invalidate the store and \
         re-attach)"
  | Private cache ->
      if Graph.n after <> Graph.n t.graph then
        invalid_arg "Neighborhood.invalidate: node counts differ";
      drop_stale cache ~before:t.graph ~after ~s:t.s ~touched;
      t.graph <- after;
      t.epoch <- t.epoch + 1

let bfs_ball t v =
  let b = Sgraph.Bfs.ball_on t.bfs t.graph v ~radius:t.s in
  (match t.c_bfs with
  | None -> ()
  | Some c -> Scliques_obs.Counters.add c (Node_set.cardinal b + 1));
  b

(* the miss marker of [ball]'s private lookup: a set of its own, never
   cached, told apart from every cached ball by [==] *)
let absent = Node_set.singleton (-1)

let ball t v =
  if t.s = 1 then
    (* a fresh copy of v's CSR row, never cached: a hot loop at s = 1
       reads the CSR row itself *)
    Graph.neighbor_set t.graph v
  else
    match t.backend with
    | Private cache ->
        (* no closure and no option: a warm hit allocates nothing *)
        let b = Scoll.Lri_cache.find_or cache v ~default:absent in
        if b != absent then b
        else begin
          let b = bfs_ball t v in
          Scoll.Lri_cache.add cache v b;
          b
        end
    | Shared_store (st, birth) -> (
        (* double-checked: probe under the lock, but run the BFS outside
           it (on this oracle's own scratch), so one slow miss never serializes the
           sibling queries sharing the store. Both the probe and the
           insert check the epoch: a stale oracle must not read hits the
           store cached for a *newer* graph (it answers for its birth
           graph, and falls back to its own BFS instead), and a
           concurrent [Shared.invalidate] must not be undone by a ball
           computed against the pre-churn graph. The insert also skips
           keys another query already filled, keeping the weight ledger
           exact. *)
        match
          Scoll.Sync.with_lock st.Shared.lock (fun () ->
              if st.Shared.st_epoch = birth then
                Scoll.Lri_cache.find_opt st.Shared.st_cache v
              else None)
        with
        | Some b -> b
        | None ->
            let b = bfs_ball t v in
            Scoll.Sync.with_lock st.Shared.lock (fun () ->
                if st.Shared.st_epoch = birth && not (Scoll.Lri_cache.mem st.Shared.st_cache v)
                then Scoll.Lri_cache.add st.Shared.st_cache v b);
            b)

let load_mask t set =
  (* clears only the previously loaded members, not the whole capacity *)
  Node_set.load_bitset t.mask ~prev:t.mask_loaded set;
  t.mask_loaded <- set;
  t.mask

let ball_forall t c =
  if Node_set.is_empty c then Graph.nodes t.graph
  else
    (* intersect balls smallest-first so intermediate results shrink fast.
       This op stays on sorted merges rather than the mask: once the
       accumulator collapses, Node_set.inter gallops in |acc|·log|ball|,
       while a mask-based step cannot avoid an O(|ball|) load — measured
       ~2x in favor of the merges on the kernel benchmarks *)
    let balls = List.map (ball t) (Node_set.to_list c) in
    let balls =
      List.sort (fun a b -> compare (Node_set.cardinal a) (Node_set.cardinal b)) balls
    in
    match balls with
    | [] -> assert false
    | first :: rest ->
        let inter =
          List.fold_left
            (fun acc b -> if Node_set.is_empty acc then acc else Node_set.inter acc b)
            first rest
        in
        Node_set.diff inter c

let adjacent_any t c =
  (* word-parallel union: scatter every member's neighbor row into the
     accumulator bitset, then collect — O(sum degrees + n/64) instead of
     one sorted merge per member *)
  Scoll.Bitset.clear t.acc;
  let csr = Graph.csr t.graph in
  let off = Sgraph.Csr.offsets csr and nbr = Sgraph.Csr.adjacency csr in
  (* SAFETY: [acc] is sized to Graph.n and every neighbor id and member
     of [c] is a valid node id, so all bit indices are below capacity;
     the [off..off+len) slice is a CSR row, in bounds by construction *)
  (Node_set.iter
     (fun v ->
       Scoll.Bitset.unsafe_add_sub t.acc nbr ~off:off.(v) ~len:(off.(v + 1) - off.(v)))
     c [@lint.allow "unsafe-allowlist"]);
  (Node_set.iter (Scoll.Bitset.unsafe_remove t.acc) c
  [@lint.allow "unsafe-allowlist"]);
  Node_set.of_bitset t.acc

let scratch t = t.scratch

let reserve (buf : int array) k =
  if Array.length buf >= k then buf else Array.make (max k (2 * Array.length buf)) 0

let zero_row (words : int array) ~(off : int array) ~(adj : int array) v =
  for j = off.(v) to off.(v + 1) - 1 do
    words.(adj.(j) lsr 5) <- 0
  done

let within_distance t u v = u = v || Node_set.mem v (ball t u)

let cache_stats t =
  match t.backend with
  | Private cache -> Scoll.Lri_cache.stats cache
  | Shared_store (st, _) -> Shared.stats st

let cache_bytes t =
  match t.backend with
  | Private cache -> Scoll.Lri_cache.total_weight cache
  | Shared_store (st, _) -> Shared.bytes st

(* Per-root branch fingerprints (the sublinear-refresh skip test).

   The results rooted at r are a function of (a) the membership of the
   closed ball B(r, rho_s) and (b) the edge set incident to its members,
   where rho_s = s + (s-1)/2. Why rho_s: every member of a result rooted
   at r lies in the closed N^s(r); deciding membership, pairwise
   s-distances and maximality only ever asks for paths of length <= s
   between nodes of the closed N^s(r), and every edge of such a path has
   an endpoint within (s-1)/2 hops of one of the path's ends — so within
   s + (s-1)/2 of r. Hashing each B(r, rho_s) member's full adjacency
   row covers exactly that data: if the digests match across an edit,
   the BFS from r explores identical rows, so the ball, every witnessing
   path and every maximality check are identical, and the branch's
   output is unchanged (up to a CRC-32 collision, ~2^-32 — the same
   trust the result stream already places in CRC-32). *)

let fingerprint_radius ~s =
  if s < 1 then invalid_arg "Neighborhood.fingerprint_radius: s must be >= 1";
  s + ((s - 1) / 2)

(* One member's record in the digest: its id, its full CSR row in one
   call, and the row terminator -1, which is no node id, so (member, row)
   framing is unambiguous and shifting ids across rows cannot collide.
   Each id goes in as the 4 little-endian bytes of its int32. *)
let add_member ~(off : int array) ~adj crc v =
  let crc = Scoll.Crc32.add_int32_le crc v in
  let crc = Scoll.Crc32.add_int32s_le crc adj ~off:off.(v) ~len:(off.(v + 1) - off.(v)) in
  Scoll.Crc32.add_int32_le crc (-1)

(* The digest of the closed ball {root} ∪ {get 0, .., get (len-1)},
   members ascending and root not among them: the root's record goes in
   at its rank. *)
let digest ~off ~adj root ~len ~get =
  let crc = ref Scoll.Crc32.start and i = ref 0 in
  while !i < len && get !i < root do
    crc := add_member ~off ~adj !crc (get !i);
    incr i
  done;
  crc := add_member ~off ~adj !crc root;
  while !i < len do
    crc := add_member ~off ~adj !crc (get !i);
    incr i
  done;
  Scoll.Crc32.finish !crc

(* the digest of [root] and its ball [b] *)
let digest_set ~off ~adj root b =
  digest ~off ~adj root ~len:(Node_set.cardinal b) ~get:(Node_set.nth b)

(* the digest of [root] and its radius-[radius] ball, taken on [bfs] *)
let digest_on bfs g ~off ~adj root ~radius =
  Sgraph.Bfs.with_ball bfs g root ~radius (fun a len ->
      digest ~off ~adj root ~len ~get:(fun i -> a.(i)))

let check_root fn g root =
  if root < 0 || root >= Graph.n g then
    invalid_arg
      (Printf.sprintf "Neighborhood.%s: node %d out of range (n=%d)" fn root (Graph.n g))

let root_fingerprint ~s g =
  let radius = fingerprint_radius ~s in
  let csr = Graph.csr g in
  let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
  (* The traversal scratch is made on the second call. The first takes
     its ball with the one-off hashed traversal, so a fingerprinter
     applied to one root (a fully applied call) allocates nothing of
     size n: on the 12,000-node dblp proxy a scratch per call made each
     call slower than that traversal. Fully applied calls come from the
     tests and from perfbench's traced enum-dblp op, which fingerprints
     each root with a fresh [root_fingerprint ~s g root]
     (perfbench/batch.ml); once that op stages one fingerprinter for all
     roots, [first] and the hashed path can go. *)
  let bfs = lazy (Sgraph.Bfs.scratch (Graph.n g)) and first = ref true in
  fun root ->
    check_root "root_fingerprint" g root;
    if !first then begin
      first := false;
      digest_set ~off ~adj root (Sgraph.Bfs.ball g root ~radius)
    end
    else digest_on (Lazy.force bfs) g ~off ~adj root ~radius

let fingerprint t root =
  check_root "fingerprint" t.graph root;
  let csr = Graph.csr t.graph in
  let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
  let radius = fingerprint_radius ~s:t.s in
  (* at rho_s = s the digested ball is the oracle's own, so a miss here
     is a cache fill the re-run reads *)
  if radius = t.s then digest_set ~off ~adj root (ball t root)
  else digest_on t.bfs t.graph ~off ~adj root ~radius

let sync_obs t =
  match t.obs with
  | None -> ()
  | Some o ->
      let stats = cache_stats t in
      let set name v = Scliques_obs.Counters.set (Scliques_obs.Obs.counter o name) v in
      set "nh.cache_hits" stats.Scoll.Lri_cache.hits;
      set "nh.cache_misses" stats.Scoll.Lri_cache.misses;
      set "nh.cache_evictions" stats.Scoll.Lri_cache.evictions
