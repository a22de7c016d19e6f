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

(* children of one C recorded in the per-node masks: the bits of a
   nonnegative int *)
let child_bits = 62

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
  let qlen = ref 0 in
  (* ExtendMax invocations since the last emission: a deterministic,
     machine-independent proxy for Theorem 4.2's delay *)
  let work_since_emit = ref 0 in
  let extend_in_graph c =
    c_incr c_extend;
    incr work_since_emit;
    Extend_max.in_graph nh c
  in
  let carve c v =
    c_incr c_extend;
    incr work_since_emit;
    Extend_max.carve nh c v
  in
  (* Line 11 needs only that SOME registered maximal set contains the
     carve (DESIGN.md §3), so a carve inside an earlier child of the
     same C is not extended. Bit j of [child_mask.(x)] says x is a
     member of C's j-th child (new or duplicate), for j < [child_bits];
     later children go unrecorded. [touched] lists the nodes whose mask
     is nonzero, so C's loop ends by clearing only those. *)
  let child_mask = Array.make (Graph.n g) 0 in
  let touched = Array.make (Graph.n g) 0 and n_touched = ref 0 in
  let record child bit =
    Node_set.iter
      (fun x ->
        if child_mask.(x) = 0 then begin
          touched.(!n_touched) <- x;
          incr n_touched
        end;
        child_mask.(x) <- child_mask.(x) lor bit)
      child
  in
  let covered carved =
    Node_set.fold (fun x acc -> acc land child_mask.(x)) carved (-1) <> 0
  in
  let register c =
    if index_add index c then begin
      c_incr c_inserts;
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
      List.iter (fun c -> ignore (index_add index c : bool)) f_index;
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
          let children = ref 0 in
          Node_set.iter
            (fun v ->
              let carved = carve c v in
              if covered carved then c_incr c_covered
              else begin
                let child = extend_in_graph carved in
                register child;
                if !children < child_bits then record child (1 lsl !children);
                incr children
              end)
            (Neighborhood.adjacent_any nh c);
          for i = 0 to !n_touched - 1 do
            child_mask.(touched.(i)) <- 0
          done;
          n_touched := 0
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
