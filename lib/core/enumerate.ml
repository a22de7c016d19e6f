module Node_set = Sgraph.Node_set

type algorithm = Poly_delay | Cs1 | Cs2 | Cs2_f | Cs2_p | Cs2_pf | Brute

let all = [ Poly_delay; Cs1; Cs2; Cs2_f; Cs2_p; Cs2_pf; Brute ]

let name = function
  | Poly_delay -> "PD"
  | Cs1 -> "CSCliques1"
  | Cs2 -> "CSCliques2"
  | Cs2_f -> "CSCliques2F"
  | Cs2_p -> "CSCliques2P"
  | Cs2_pf -> "CSCliques2PF"
  | Brute -> "BruteForce"

let of_name n =
  match String.lowercase_ascii n with
  | "pd" | "polydelayenum" | "poly_delay" -> Some Poly_delay
  | "cs1" | "cscliques1" -> Some Cs1
  | "cs2" | "cscliques2" -> Some Cs2
  | "cs2f" | "cscliques2f" -> Some Cs2_f
  | "cs2p" | "cscliques2p" -> Some Cs2_p
  | "cs2pf" | "cscliques2pf" -> Some Cs2_pf
  | "brute" | "bruteforce" -> Some Brute
  | _ -> None

type run_report = {
  outcome : Budget.outcome;
  resumable : Checkpoint.state option;
  emitted : int;
}

let checkpoint_family = function
  | Poly_delay -> "pd"
  | Brute -> "brute"
  | Cs1 | Cs2 | Cs2_f | Cs2_p | Cs2_pf -> "roots"

(* the search rule of a rooted algorithm; [None]: no rooted decomposition *)
let rule =
  let pivot = Some Cs_cliques2.Min_uncovered in
  function
  | Cs1 -> Some Cs_cliques2.Cs1
  | Cs2 -> Some (Cs_cliques2.Cs2 { pivot = None; feasibility = false })
  | Cs2_f -> Some (Cs_cliques2.Cs2 { pivot = None; feasibility = true })
  | Cs2_p -> Some (Cs_cliques2.Cs2 { pivot; feasibility = false })
  | Cs2_pf -> Some (Cs_cliques2.Cs2 { pivot; feasibility = true })
  | Poly_delay | Brute -> None

let check ?workers ?roots algorithm g ~s =
  if s < 1 then invalid_arg "Enumerate.run: s must be >= 1";
  let rule = rule algorithm in
  let n = Sgraph.Graph.n g in
  (match (workers, rule) with
  | Some _, None ->
      invalid_arg
        (Printf.sprintf
           "Enumerate.run: %s has no parallel engine (workers need a rooted algorithm)"
           (name algorithm))
  | Some w, Some _ when w < 1 -> invalid_arg "Enumerate.run: workers must be >= 1"
  | _ -> ());
  (match roots with
  | Some _ when Option.is_none rule ->
      invalid_arg
        (Printf.sprintf
           "Enumerate.run: %s has no rooted decomposition to select roots from"
           (name algorithm))
  | Some rs ->
      List.iter
        (fun v -> if v < 0 || v >= n then invalid_arg "Enumerate.run: root out of range")
        rs
  | None -> ());
  match algorithm with Brute -> Brute_force.check_size g | _ -> ()

(* [stream]: deliver a rooted algorithm's results as the search finds
   them instead of holding each root's back until it commits. Safe only
   when nobody resumes from the run's state: a cut root's delivered
   results would be produced again by a resume. *)
let run_with ~stream ?(min_size = 0) ?cache_capacity ?obs ?nh ?budget ?resume
    ?workers ?roots algorithm g ~s yield =
  check ?workers ?roots algorithm g ~s;
  let rule = rule algorithm in
  let n = Sgraph.Graph.n g in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  (* the daemon's warm path: queries against the same graph inject one
     shared-backed oracle instead of each run cold-starting its own *)
  let oracle () =
    match nh with
    | Some o ->
        if Neighborhood.s o <> s then
          invalid_arg "Enumerate.run: oracle has a different s";
        if Sgraph.Graph.n (Neighborhood.graph o) <> n then
          invalid_arg "Enumerate.run: oracle graph has a different node count";
        o
    | None -> Neighborhood.create ?cache_capacity ?obs ~s g
  in
  (* publish the oracle's cache counters however the run ends, including
     an exception from the caller's sink *)
  let synced nh f =
    match obs with
    | None -> f ()
    | Some _ -> Fun.protect ~finally:(fun () -> Neighborhood.sync_obs nh) f
  in
  (match resume with
  | Some st
    when not (String.equal (Checkpoint.family st) (checkpoint_family algorithm)) ->
      failwith
        (Printf.sprintf
           "cannot resume a %S checkpoint with algorithm %s (it needs a %S one)"
           (Checkpoint.family st) (name algorithm) (checkpoint_family algorithm))
  | _ -> ());
  (* the parallel sink runs in worker domains, one root at a time *)
  let emitted = Atomic.make 0 in
  let deliver c =
    yield c;
    Atomic.incr emitted
  in
  let commit c =
    deliver c;
    Budget.note_result budget
  in
  let resumable =
    match algorithm with
    | Brute ->
        let from_mask =
          match resume with
          | Some (Checkpoint.Brute_mask { next_mask }) -> Some next_mask
          | _ -> None
        in
        let c_emits =
          Option.map (fun o -> Scliques_obs.Obs.counter o "brute.emits") obs
        in
        (match obs with None -> () | Some o -> Scliques_obs.Obs.reset_clock o);
        let next_mask =
          Brute_force.iter_masks ~should_continue:(Budget.checker budget) ?from_mask g ~s
            (fun c ->
              if Node_set.cardinal c >= min_size then begin
                (match (obs, c_emits) with
                | Some o, Some ctr ->
                    Scliques_obs.Counters.incr ctr;
                    Scliques_obs.Obs.tick o
                | _ -> ());
                commit c
              end)
        in
        fun () -> Checkpoint.Brute_mask { next_mask }
    | Poly_delay ->
        let nh = oracle () in
        let init =
          match resume with
          | Some (Checkpoint.Pd_frontier { index; queue }) ->
              Some { Poly_delay.f_index = index; f_queue = queue }
          | _ -> None
        in
        let queue_mode =
          if min_size > 0 then Poly_delay.Largest_first else Poly_delay.Fifo
        in
        let (_ : Poly_delay.run_stats), frontier =
          synced nh (fun () ->
              Poly_delay.run ~queue_mode ~min_size
                ~should_continue:(Budget.checker budget) ?init ?obs nh commit)
        in
        fun () ->
          Checkpoint.Pd_frontier { index = frontier.f_index; queue = frontier.f_queue }
    | Cs1 | Cs2 | Cs2_f | Cs2_p | Cs2_pf ->
        let prior =
          match resume with Some (Checkpoint.Roots { retired }) -> retired | _ -> []
        in
        (* the roots this call runs, ascending: [roots] (default every
           node) minus the ones a resumed checkpoint already retired *)
        let todo = Array.make (max n 1) (Option.is_none roots) in
        Option.iter (List.iter (fun v -> todo.(v) <- true)) roots;
        List.iter (fun v -> if v >= 0 && v < n then todo.(v) <- false) prior;
        let todo = List.filter (fun v -> todo.(v)) (List.init n Fun.id) in
        (* [rule] is [Some] here: every rooted algorithm has one *)
        let retired =
          match workers with
          | Some workers ->
              let (_ : Budget.outcome), retired =
                Parallel.run ?rule ~min_size ?cache_capacity ?obs ~roots:todo ~workers
                  ~budget g ~s (fun _root rs -> List.iter deliver rs)
              in
              retired
          | None ->
              let nh = oracle () in
              let buffer = ref [] in
              let rn =
                Cs_cliques2.make_runner ?rule ~min_size
                  ~should_continue:(Budget.checker budget) ?obs nh
                  (if stream then commit else fun c -> buffer := c :: !buffer)
              in
              let run_root v = Cs_cliques2.run_task rn (Cs_cliques2.root_task nh v) in
              (* roots are explored one at a time with their results held
                 back (unless [stream]); a root COMMITS — streams its
                 buffer and joins the retired set — only if the budget is
                 still live when its whole subtree has run. The trip flag
                 is sticky, so a trip that pruned any part of the subtree
                 is still visible here: pruned roots never commit, and
                 uncommitted roots rerun in full on resume. Commits are
                 root-atomic — a [Max_results] trip mid-commit still
                 flushes the rest of that root's buffer (bounded
                 overshoot) rather than splitting a root. *)
              let rec loop retired = function
                | root :: rest when Budget.live budget ->
                    buffer := [];
                    run_root root;
                    if Budget.live budget then begin
                      List.iter commit (List.rev !buffer);
                      loop (root :: retired) rest
                    end
                    else retired
                | _ -> retired
              in
              synced nh (fun () -> loop [] todo)
        in
        fun () ->
          Checkpoint.Roots { retired = List.sort Int.compare (List.rev_append prior retired) }
  in
  let outcome = Budget.status budget in
  {
    outcome;
    resumable =
      (match outcome with
      | Budget.Complete -> None
      | Budget.Truncated _ -> Some (resumable ()));
    emitted = Atomic.get emitted;
  }

(* without a budget nothing can cut the run, so holding results back
   buys nothing: they stream *)
let run ?min_size ?cache_capacity ?obs ?nh ?budget ?resume ?workers ?roots algorithm g
    ~s yield =
  run_with ~stream:(Option.is_none budget) ?min_size ?cache_capacity ?obs ?nh ?budget
    ?resume ?workers ?roots algorithm g ~s yield

(* the results a run delivers, in delivery order *)
let collect run =
  let acc = ref [] in
  let (_ : run_report) = run (fun c -> acc := c :: !acc) in
  List.rev !acc

type refresh_delta = {
  results : Node_set.t list;
  added : Node_set.t list;
  removed : Node_set.t list;
  roots_rerun : int;
  roots_skipped : int;
  root_fingerprints : (int * int) list;
}

(* the sorted-input contract on [prior], checked only under asserts: a
   linear scan, where the sort it replaces cost O(|answer| log |answer|)
   on every refresh of an already-sorted answer *)
let rec is_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> Node_set.compare a b <= 0 && is_sorted rest

(* The affected-root set R for a batch replayed edit by edit: balls are
   taken in the actual intermediate graphs (kept as one uncompacted
   Overlay, rewound one edit when the pre-edit graph is needed again),
   so each edit contributes only the radius-(s-1) D of its own endpoints
   instead of the radius-s blanket a whole-batch bound needs. *)
let per_edit_affected_roots ~before ~s edits =
  let o = Sgraph.Overlay.of_graph before in
  let n = Sgraph.Overlay.n o in
  let ball srcs radius =
    Sgraph.Bfs.ball_multi_rows
      ~iter_row:(fun f v -> Sgraph.Overlay.iter_row f o v)
      ~n ~srcs ~radius
  in
  let invert = function
    | Sgraph.Overlay.Insert (u, v) -> Sgraph.Overlay.Delete (u, v)
    | Sgraph.Overlay.Delete (u, v) -> Sgraph.Overlay.Insert (u, v)
  in
  List.fold_left
    (fun acc e ->
      let u, v = Sgraph.Overlay.edit_endpoints e in
      let srcs = [ u; v ] in
      (* D_i: the radius-(s-1) balls of the endpoints in G_i and G_{i+1} *)
      let d_pre = ball srcs (s - 1) in
      Sgraph.Overlay.apply o [ e ] (* strict: a stale edit list must not
                                      silently yield a wrong R *);
      let d = Node_set.to_list (Node_set.union d_pre (ball srcs (s - 1))) in
      (* R_i: radius-s balls of D_i in both graphs; rewind for G_i *)
      let r_post = ball d s in
      Sgraph.Overlay.apply o [ invert e ];
      let r_pre = ball d s in
      Sgraph.Overlay.apply o [ e ];
      Node_set.union acc (Node_set.union r_pre r_post))
    Node_set.empty edits

(* a \ b over lists sorted by Node_set.compare, single merge pass *)
let sorted_diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | x :: ta, y :: tb ->
        let c = Node_set.compare x y in
        if c = 0 then go acc ta tb
        else if c < 0 then go (x :: acc) ta b
        else go acc a tb
  in
  go [] a b

let refresh ?(min_size = 0) ?cache_capacity ?(engine = `Seq Cs2_pf) ?nh ?edits
    ?prior_fingerprint ~before ~after ~touched ~s ~prior () =
  if s < 1 then invalid_arg "Enumerate.refresh: s must be >= 1";
  let n = Sgraph.Graph.n after in
  if Sgraph.Graph.n before <> n then
    invalid_arg "Enumerate.refresh: node counts differ";
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Enumerate.refresh: touched node out of range")
    touched;
  let alg, workers =
    match engine with `Seq alg -> (alg, None) | `Par (alg, w) -> (alg, Some w)
  in
  (* the re-run's refusals, before any work: a rule without a rooted
     decomposition, a worker count below 1 *)
  check ?workers ~roots:[] alg after ~s;
  let touched = List.sort_uniq Int.compare touched in
  (match edits with
  | None -> ()
  | Some es ->
      (* [edits] must be the exact effective batch between the graphs:
         its endpoint set is [touched] by construction, so a mismatch
         means the caller paired a stale script with the wrong graphs *)
      if not (List.equal Int.equal (Sgraph.Overlay.touched es) touched) then
        invalid_arg "Enumerate.refresh: edits do not match touched");
  (* keep a caller-supplied warm oracle in lockstep with the graph even
     when it is not the engine doing the re-enumeration *)
  Option.iter (fun oracle ->
      if Neighborhood.s oracle <> s then
        invalid_arg "Enumerate.refresh: oracle has a different s";
      Neighborhood.invalidate oracle ~after ~touched)
    nh;
  (* sorted-input contract: [prior] arrives in Node_set.compare order
     (every producer here — sorted_results, a prior delta's [results], a
     sorted stream load — already has it), so refresh stops paying an
     O(|answer| log |answer|) sort per edit *)
  assert (is_sorted prior);
  match touched with
  | [] ->
      {
        results = prior;
        added = [];
        removed = [];
        roots_rerun = 0;
        roots_skipped = 0;
        root_fingerprints = [];
      }
  | _ :: _ ->
      (* Locality (paper §3: members of a result are pairwise within
         distance s). Let D be the set of nodes whose edge-relevant
         neighborhood changed: a node k with N^s(k) or its incident
         edges differing between the graphs. Any result that appears,
         vanishes or changes across the edit has a member in D, and its
         root (minimum member) is within distance s of that member in
         whichever graph the result lives in — so the affected roots lie
         in R = the union of the closed radius-s balls of D in both
         graphs. Retract every prior result rooted in R, re-enumerate
         exactly the roots of R on the after-graph, and keep the rest
         byte-identical.

         For a single edit, k's ball changes only when a witnessing
         ≤s-path runs through the edited edge, which puts k within
         distance s-1 of an endpoint in the graph holding that path; the
         radius-(s-1) balls of the endpoints are exactly D. With the
         edit script in hand, a batch is that single-edit argument
         replayed per step against the actual intermediate graphs
         ([per_edit_affected_roots]); without it, the whole-batch bound
         pays one hop of slack — intermediate graphs can mix edges from
         both ends of the sequence into one path — so D widens to
         radius s. Two touched nodes means one edit (effective edit
         lists carry each pair at most once). *)
      let r =
        match edits with
        | Some es when List.length es > 1 -> per_edit_affected_roots ~before ~s es
        | _ ->
            let d_radius = if List.length touched <= 2 then s - 1 else s in
            let d =
              Node_set.union
                (Sgraph.Bfs.ball_multi before ~srcs:touched ~radius:d_radius)
                (Sgraph.Bfs.ball_multi after ~srcs:touched ~radius:d_radius)
            in
            let dl = Node_set.to_list d in
            Node_set.union
              (Sgraph.Bfs.ball_multi before ~srcs:dl ~radius:s)
              (Sgraph.Bfs.ball_multi after ~srcs:dl ~radius:s)
      in
      (* one oracle on the after-graph serves the gate and the
         sequential re-run, so the root balls the gate takes stay warm
         (the parallel re-run's workers build their own and never read
         it) *)
      let nh =
        match nh with
        | Some o -> o
        | None -> Neighborhood.create ?cache_capacity ~s after
      in
      (* fingerprint gate: within R, a root whose branch digest is equal
         on both endpoint graphs provably re-derives its exact prior
         results, so it neither retracts nor re-runs. (Only the endpoint
         graphs matter — fingerprint equality certifies equal branch
         output regardless of what the intermediate graphs did.) A root
         with no touched node within rho_s in either graph reads only
         unchanged rows while it takes its digest's ball, so the digest
         input is bit-identical and the root is skipped undigested; only
         the roots of R near the edit are digested. *)
      let roots, skipped, root_fingerprints =
        let radius = Neighborhood.fingerprint_radius ~s in
        let near =
          Node_set.union
            (Sgraph.Bfs.ball_multi before ~srcs:touched ~radius)
            (Sgraph.Bfs.ball_multi after ~srcs:touched ~radius)
        in
        let digest_before = lazy (Neighborhood.root_fingerprint ~s before) in
        let fp_before root =
          match Option.bind prior_fingerprint (fun f -> f root) with
          | Some fp -> fp
          | None -> Lazy.force digest_before root
        in
        let rerun = ref [] and fps = ref [] in
        Node_set.iter
          (fun root ->
            let fp_after = Neighborhood.fingerprint nh root in
            fps := (root, fp_after) :: !fps;
            if fp_after <> fp_before root then rerun := root :: !rerun)
          (Node_set.inter r near);
        let rerun = List.rev !rerun in
        (rerun, Node_set.cardinal r - List.length rerun, List.rev !fps)
      in
      let rerun_set = Node_set.of_list roots in
      let kept, dropped =
        List.partition
          (fun c -> not (Node_set.mem (Node_set.min_elt c) rerun_set))
          prior
      in
      let fresh =
        match roots with
        | [] -> [] (* every affected root fingerprint-skipped *)
        | _ :: _ ->
            List.sort Node_set.compare
              (collect (run ~min_size ?cache_capacity ~nh ?workers ~roots alg after ~s))
      in
      {
        results = List.merge Node_set.compare kept fresh;
        added = sorted_diff fresh dropped;
        removed = sorted_diff dropped fresh;
        roots_rerun = List.length roots;
        roots_skipped = skipped;
        root_fingerprints;
      }

let first_n ?min_size ?cache_capacity ?obs ?budget algorithm g ~s n =
  if n < 0 then invalid_arg "Enumerate.first_n: negative n";
  (* no resumable state is ever asked of this run, so results stream and
     the run stops at the n-th one the search finds *)
  let acc = ref [] and got = ref 0 in
  let exception Enough in
  (if n > 0 then
     try
       let (_ : run_report) =
         run_with ~stream:true ?min_size ?cache_capacity ?obs ?budget algorithm g ~s
           (fun c ->
             acc := c :: !acc;
             incr got;
             if !got = n then raise Enough)
       in
       ()
     with Enough -> ());
  List.rev !acc

let sorted_results ?min_size ?cache_capacity algorithm g ~s =
  List.sort Node_set.compare (collect (run ?min_size ?cache_capacity algorithm g ~s))

let largest ?cache_capacity algorithm g ~s k =
  if k < 0 then invalid_arg "Enumerate.largest: negative k";
  (* min-heap of the current champions: the root is the smallest kept set,
     evicted whenever something bigger arrives *)
  let cmp a b =
    let c = compare (Node_set.cardinal a) (Node_set.cardinal b) in
    if c <> 0 then c else Node_set.compare b a
  in
  let heap = Scoll.Binary_heap.create ~cmp () in
  let (_ : run_report) =
    run ?cache_capacity algorithm g ~s (fun c ->
        if Scoll.Binary_heap.length heap < k then Scoll.Binary_heap.push heap c
        else if k > 0 && cmp c (Scoll.Binary_heap.peek heap) > 0 then begin
          ignore (Scoll.Binary_heap.pop heap);
          Scoll.Binary_heap.push heap c
        end)
  in
  List.rev (Scoll.Binary_heap.pop_all heap)
