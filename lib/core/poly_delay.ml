module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

type queue_mode = Fifo | Largest_first

type index_mode = Btree | Hashtable

type run_stats = { results : int; generated : int; index_height : int }

(* Index front-end: the paper asks for logarithmic-time membership and
   insert ("I can be implemented as a BTree"); the hashtable alternative is
   kept for the ablation benchmark. add returns true when the key is new. *)
type index =
  | I_btree of Node_set.t Scoll.Btree.t
  | I_hash of (Node_set.t, unit) Hashtbl.t * int ref

let index_create = function
  | Btree -> I_btree (Scoll.Btree.create ~cmp:Node_set.compare ())
  | Hashtable ->
      (* structural hashing/equality over whole Node_set.t keys (sorted
         int arrays) is the point of this ablation variant — the generic
         primitives are intentional here, not an accident *)
      I_hash ((Hashtbl.create 4096 [@lint.allow "poly-compare"]), ref 0)

let index_add index c =
  match index with
  | I_btree t -> Scoll.Btree.add t c
  | I_hash (h, size) ->
      if Hashtbl.mem h c then false
      else begin
        Hashtbl.replace h c ();
        incr size;
        true
      end

let index_length = function
  | I_btree t -> Scoll.Btree.length t
  | I_hash (_, size) -> !size

let index_to_list = function
  | I_btree t -> Scoll.Btree.to_list t
  | I_hash (h, _) ->
      (* hash order is unspecified; sort so checkpoints are deterministic *)
      List.sort Node_set.compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

let index_height = function I_btree t -> Scoll.Btree.height t | I_hash _ -> 0

(* Queue front-end over the two §6 disciplines. Largest-first breaks ties
   lexicographically so runs stay deterministic. *)
type queue =
  | Q_fifo of Node_set.t Scoll.Fifo_queue.t
  | Q_heap of Node_set.t Scoll.Binary_heap.t

let queue_create = function
  | Fifo -> Q_fifo (Scoll.Fifo_queue.create ())
  | Largest_first ->
      let cmp a b =
        let c = compare (Node_set.cardinal b) (Node_set.cardinal a) in
        if c <> 0 then c else Node_set.compare a b
      in
      Q_heap (Scoll.Binary_heap.create ~cmp ())

let queue_push q x =
  match q with
  | Q_fifo f -> Scoll.Fifo_queue.push f x
  | Q_heap h -> Scoll.Binary_heap.push h x

let queue_pop_opt q =
  match q with
  | Q_fifo f -> Scoll.Fifo_queue.pop_opt f
  | Q_heap h -> Scoll.Binary_heap.pop_opt h

(* optional-counter helpers: one [match] on the off path, a field write on *)
let c_incr = function None -> () | Some c -> Scliques_obs.Counters.incr c

let c_set_max c n = match c with None -> () | Some c -> Scliques_obs.Counters.set_max c n

type frontier = { f_index : Node_set.t list; f_queue : Node_set.t list }

(* the bits of a nonnegative int: the bits per word of a row, the
   children of one C recorded in the per-node masks, and the sets a
   node's ring holds *)
let child_bits = 62

(* the index of the one set bit of [b], a power of two below 2^62 *)
let bit_index b =
  let r = ref 0 and b = ref b and step = ref 32 in
  while !step > 0 do
    if !b lsr !step <> 0 then begin
      r := !r + !step;
      b := !b lsr !step
    end;
    step := !step / 2
  done;
  !r

let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

module Rows = struct
  (* Lines 9–10 for one dequeued C (DESIGN.md §3). C's members get ranks
     0..k-1 in ascending order, its neighbors rows 0..m-1 in ascending
     order. Row j holds, in [words] words of [child_bits] bits, the ranks
     of S_v = C ∩ N^s(v) for v = [nbr.(j)]: by distance symmetry, the
     members whose ball holds v, so one pass over C's balls fills every
     row. As C is an s-clique, every member's ball holds the rest of C,
     so the carve ExtendMax({v}, G[C ∪ {v}]) is v's connected piece of
     G[{v} ∪ S_v], a search along CSR rows. *)
  type t = {
    nh : Neighborhood.t;
    rank : int array; (* C's members to their rank, -1 elsewhere *)
    slot : int array; (* C's neighbors to their row, -1 elsewhere *)
    child_mask : int array; (* bit j: a member of C's j-th child *)
    touched : int array; (* the nodes whose child mask is nonzero *)
    mutable n_touched : int;
    mutable children : int;
    mutable members : int array; (* C, ascending *)
    mutable nbr : int array; (* C's neighbors, ascending, the first [m] *)
    mutable m : int;
    mutable words : int; (* words per row *)
    mutable rows : int array;
    mutable tmp : int array; (* sort scratch *)
    mutable rem : int array; (* the carve's unreached ranks *)
    mutable stack : int array;
  }

  let create nh =
    let n = Graph.n (Neighborhood.graph nh) in
    {
      nh;
      rank = Array.make n (-1);
      slot = Array.make n (-1);
      child_mask = Array.make n 0;
      touched = Array.make n 0;
      n_touched = 0;
      children = 0;
      members = [||];
      nbr = [||];
      m = 0;
      words = 0;
      rows = [||];
      tmp = [||];
      rem = [||];
      stack = [||];
    }

  let clear t =
    for j = 0 to t.m - 1 do
      t.slot.(t.nbr.(j)) <- -1
    done;
    Array.iter (fun x -> t.rank.(x) <- -1) t.members;
    for i = 0 to t.n_touched - 1 do
      t.child_mask.(t.touched.(i)) <- 0
    done;
    t.members <- [||];
    t.m <- 0;
    t.n_touched <- 0;
    t.children <- 0

  let load t c =
    clear t;
    let members = Node_set.to_array c in
    let k = Array.length members in
    t.members <- members;
    let rank = t.rank and slot = t.slot in
    for i = 0 to k - 1 do
      rank.(members.(i)) <- i
    done;
    let g = Neighborhood.graph t.nh in
    let csr = Graph.csr g in
    let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
    let degrees = ref 0 in
    for i = 0 to k - 1 do
      degrees := !degrees + off.(members.(i) + 1) - off.(members.(i))
    done;
    t.nbr <- Neighborhood.reserve t.nbr !degrees;
    let nbr = t.nbr and m = ref 0 in
    (* N^{∃,1}(C): each CSR row entry outside C, once *)
    for i = 0 to k - 1 do
      let x = members.(i) in
      for e = off.(x) to off.(x + 1) - 1 do
        let y = adj.(e) in
        if rank.(y) < 0 && slot.(y) < 0 then begin
          slot.(y) <- 0 (* seen; numbered after the sort *);
          nbr.(!m) <- y;
          incr m
        end
      done
    done;
    let m = !m in
    t.tmp <- Neighborhood.reserve t.tmp m;
    Node_set.sort_ints nbr ~tmp:t.tmp 0 m;
    for j = 0 to m - 1 do
      slot.(nbr.(j)) <- j
    done;
    t.m <- m;
    let w = (k + child_bits - 1) / child_bits in
    t.words <- w;
    t.rows <- Neighborhood.reserve t.rows (m * w);
    let rows = t.rows in
    Array.fill rows 0 (m * w) 0;
    let by_csr = Neighborhood.s t.nh = 1 in
    for i = 0 to k - 1 do
      let x = members.(i) and off_w = i / child_bits and mask = 1 lsl (i mod child_bits) in
      if by_csr then
        for e = off.(x) to off.(x + 1) - 1 do
          let l = slot.(adj.(e)) in
          if l >= 0 then rows.(off_w + (l * w)) <- rows.(off_w + (l * w)) lor mask
        done
      else
        Node_set.scatter_column (Neighborhood.ball t.nh x) ~slot ~into:rows ~stride:w
          ~off:off_w ~mask
    done

  (* C's j-th child (new or duplicate) sets bit j on its members, for
     j < [child_bits]; later children go unrecorded *)
  let record t child =
    if t.children < child_bits then begin
      let bit = 1 lsl t.children in
      Node_set.iter
        (fun x ->
          if t.child_mask.(x) = 0 then begin
            t.touched.(t.n_touched) <- x;
            t.n_touched <- t.n_touched + 1
          end;
          t.child_mask.(x) <- t.child_mask.(x) lor bit)
        child
    end;
    t.children <- t.children + 1

  (* whether an earlier child holds {v} ∪ S_v, so the carve of row j too *)
  let row_covered t j =
    t.children > 0
    &&
    let acc = ref t.child_mask.(t.nbr.(j)) and i = ref 0 in
    let base = j * t.words in
    while !acc <> 0 && !i < t.words do
      let bits = ref t.rows.(base + !i) in
      while !bits <> 0 && !acc <> 0 do
        let low = !bits land - !bits in
        acc := !acc land t.child_mask.(t.members.((!i * child_bits) + bit_index low));
        bits := !bits lxor low
      done;
      incr i
    done;
    !acc <> 0

  (* Search from row j's node v through CSR rows, stepping only onto the
     ranks of its row: [rem] keeps the ranks not reached. Whether an
     earlier child holds the carve, when the pre-test did not prove it. *)
  let reach t j =
    let v = t.nbr.(j) and w = t.words in
    t.rem <- Neighborhood.reserve t.rem w;
    t.stack <- Neighborhood.reserve t.stack (Array.length t.members + 1);
    let rem = t.rem and stack = t.stack and rank = t.rank and mask = t.child_mask in
    let left = ref 0 in
    for i = 0 to w - 1 do
      let x = t.rows.((j * w) + i) in
      rem.(i) <- x;
      left := !left + popcount x
    done;
    let csr = Graph.csr (Neighborhood.graph t.nh) in
    let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
    let acc = ref mask.(v) and sp = ref 1 in
    stack.(0) <- v;
    while !sp > 0 && !left > 0 do
      decr sp;
      let u = stack.(!sp) in
      for e = off.(u) to off.(u + 1) - 1 do
        let y = adj.(e) in
        let r = rank.(y) in
        if r >= 0 then begin
          let i = r / child_bits and b = 1 lsl (r mod child_bits) in
          if rem.(i) land b <> 0 then begin
            rem.(i) <- rem.(i) lxor b;
            decr left;
            acc := !acc land mask.(y);
            stack.(!sp) <- y;
            incr sp
          end
        end
      done
    done;
    (* a carve of all of {v} ∪ S_v has the AND the pre-test found 0 *)
    !acc <> 0

  (* the carve [reach] just searched: v and the ranks it reached *)
  let take t j =
    let v = t.nbr.(j) and w = t.words in
    let size = ref 1 in
    for i = 0 to w - 1 do
      size := !size + popcount (t.rows.((j * w) + i) land lnot t.rem.(i))
    done;
    (* ranks ascend with ids: v's slot is skipped over, so it keeps v *)
    let out = Array.make !size v and p = ref 0 and placed = ref false in
    for i = 0 to w - 1 do
      let bits = ref (t.rows.((j * w) + i) land lnot t.rem.(i)) in
      while !bits <> 0 do
        let low = !bits land - !bits in
        let x = t.members.((i * child_bits) + bit_index low) in
        if (not !placed) && v < x then begin
          placed := true;
          incr p
        end;
        out.(!p) <- x;
        incr p;
        bits := !bits lxor low
      done
    done;
    Node_set.of_sorted_array_unchecked out

  let neighbors t = Node_set.of_array (Array.sub t.nbr 0 t.m)

  let row_of t fn v =
    if v < 0 || v >= Array.length t.slot || t.slot.(v) < 0 then
      invalid_arg (Printf.sprintf "Poly_delay.Rows.%s: node is not a neighbor of the set" fn);
    t.slot.(v)

  let row t v =
    let j = row_of t "row" v in
    let acc = ref [] in
    for r = Array.length t.members - 1 downto 0 do
      if t.rows.((j * t.words) + (r / child_bits)) land (1 lsl (r mod child_bits)) <> 0
      then acc := t.members.(r) :: !acc
    done;
    Node_set.of_list !acc

  let carve t v =
    let j = row_of t "carve" v in
    ignore (reach t j : bool);
    take t j
end

(* Each node's most recent [child_bits] registered sets that contain
   it, newest last, overwriting the oldest once full: where line 11
   looks for a registered set that already holds a carve. A ring grows
   by doubling up to the cap, so a node in few sets costs few words. *)
module Rings = struct
  type t = { sets : Node_set.t array array; pushed : int array }

  let create n = { sets = Array.make n [||]; pushed = Array.make n 0 }

  let push t set =
    Node_set.iter
      (fun x ->
        let p = t.pushed.(x) and r = t.sets.(x) in
        let r =
          if p < Array.length r || Array.length r = child_bits then r
          else begin
            let grown =
              Array.make (min child_bits (max 2 (2 * Array.length r))) Node_set.empty
            in
            Array.blit r 0 grown 0 (Array.length r);
            t.sets.(x) <- grown;
            grown
          end
        in
        r.(p mod child_bits) <- set;
        t.pushed.(x) <- p + 1)
      set

  (* a set in the ring of [k]'s member with the fewest pushes that
     contains [k]: a ring that never filled holds every registered set
     containing its node, so the search is then exact *)
  let find t k =
    let x =
      Node_set.fold
        (fun y best -> if t.pushed.(y) < t.pushed.(best) then y else best)
        k (Node_set.min_elt k)
    in
    let p = t.pushed.(x) and r = t.sets.(x) and size = Node_set.cardinal k in
    let rec go i =
      if i >= min p child_bits then None
      else
        let set = r.((p - 1 - i) mod child_bits) in
        if Node_set.cardinal set >= size && Node_set.subset k set then Some set
        else go (i + 1)
    in
    go 0
end

let run ?(queue_mode = Fifo) ?(index_mode = Btree) ?(min_size = 0)
    ?(should_continue = fun () -> true) ?init ?obs nh yield =
  let g = Neighborhood.graph nh in
  let queue = queue_create queue_mode in
  let index = index_create index_mode in
  let results = ref 0 in
  (* counter handles resolved once; all None when running unobserved *)
  let ctr name = Option.map (fun o -> Scliques_obs.Obs.counter o name) obs in
  let c_dequeues = ctr "pd.dequeues" in
  let c_emits = ctr "pd.emits" in
  let c_extend = ctr "pd.extend_max_calls" in
  let c_inserts = ctr "pd.index_inserts" in
  let c_duplicates = ctr "pd.index_duplicates" in
  let c_qhw = ctr "pd.queue_high_water" in
  let c_gap_work = ctr "pd.max_extend_calls_between_emits" in
  let c_covered = ctr "pd.carves_covered" in
  let c_ring_hits = ctr "pd.ring_hits" in
  let qlen = ref 0 in
  (* ExtendMax invocations since the last emission: a deterministic,
     machine-independent proxy for Theorem 4.2's delay *)
  let work_since_emit = ref 0 in
  let extend_in_graph c =
    c_incr c_extend;
    incr work_since_emit;
    Extend_max.in_graph nh c
  in
  let rows = Rows.create nh and rings = Rings.create (Graph.n g) in
  let register c =
    if index_add index c then begin
      c_incr c_inserts;
      Rings.push rings c;
      queue_push queue c;
      incr qlen;
      c_set_max c_qhw !qlen
    end
    else c_incr c_duplicates
  in
  (match obs with None -> () | Some o -> Scliques_obs.Obs.reset_clock o);
  (match init with
  | None ->
      (* one seed per connected component: distances never cross
         components, so the connected graph assumed by the paper
         generalizes *)
      List.iter
        (fun comp ->
          let seed = Node_set.singleton (Node_set.min_elt comp) in
          register (extend_in_graph seed))
        (Sgraph.Components.components g)
  | Some { f_index; f_queue } ->
      (* resume from a checkpoint: everything in the index was already
         registered (and, if absent from the queue, already emitted) by
         the interrupted run, so it re-enters the index silently — only
         the saved queue is put back up for processing *)
      List.iter (fun c -> if index_add index c then Rings.push rings c) f_index;
      List.iter
        (fun c ->
          queue_push queue c;
          incr qlen)
        f_queue);
  let running = ref true in
  while !running do
    if not (should_continue ()) then running := false
    else
      match queue_pop_opt queue with
      | None -> running := false
      | Some c ->
          decr qlen;
          c_incr c_dequeues;
          if Node_set.cardinal c >= min_size then begin
            incr results;
            c_incr c_emits;
            c_set_max c_gap_work !work_since_emit;
            work_since_emit := 0;
            (match obs with None -> () | Some o -> Scliques_obs.Obs.tick o);
            yield c
          end;
          (* Line 11 needs only that SOME registered maximal set contains
             the carve (DESIGN.md §3): a carve inside an earlier child of
             the same C is not extended, and one that the pre-test on
             {v} ∪ S_v proves so is not even built; a carve inside a
             registered set in the rings is not extended either, and
             that set counts as a child of C *)
          Rows.load rows c;
          for j = 0 to rows.Rows.m - 1 do
            if Rows.row_covered rows j then c_incr c_covered
            else begin
              (* the carve, line 10 *)
              c_incr c_extend;
              incr work_since_emit;
              if Rows.reach rows j then c_incr c_covered
              else begin
                let carved = Rows.take rows j in
                match Rings.find rings carved with
                | Some known ->
                    c_incr c_ring_hits;
                    Rows.record rows known
                | None ->
                    let child = extend_in_graph carved in
                    register child;
                    Rows.record rows child
              end
            end
          done
  done;
  (match obs with None -> () | Some _ -> Neighborhood.sync_obs nh);
  let stats =
    {
      results = !results;
      generated = index_length index;
      index_height = index_height index;
    }
  in
  let frontier =
    {
      f_index = index_to_list index;
      f_queue =
        (match queue with
        | Q_fifo f -> Scoll.Fifo_queue.to_list f
        | Q_heap h -> Scoll.Binary_heap.pop_all h);
    }
  in
  (stats, frontier)
