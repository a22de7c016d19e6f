module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

(* A unit of schedulable work. Roots travel as bare ids so the ball
   computation that materializes the root state happens on whichever
   worker executes (or steals) it, not serially up front. Subtrees carry
   the id of the root branch they came from: results and completion are
   accounted per root. *)
type work =
  | Root of int
  | Sub of int * Cs_cliques2.task

(* Per-root completion tracking. [root_pending.(v)]
   counts v's outstanding work items (the root item itself, plus every
   split-off subtree; children register before their parent retires, so
   0 means the whole branch ran). The worker whose decrement hits 0
   COMMITS the root — flushes its buffered results and records it
   retired — but only while the budget is live: the trip flag is sticky,
   so any trip that pruned part of the branch (or crashed a task, which
   skips the decrement entirely) is visible here and the root stays
   uncommitted, to be rerun in full by a resume. *)
type rooted = {
  root_pending : int Atomic.t array;
  stripes : Mutex.t array; (* buffer shards: root land 63 *)
  buffers : Node_set.t list array; (* per-root results, under the stripe *)
  commit_lock : Mutex.t; (* serializes commits and the retired list *)
  mutable retired : int list;
  mutable committed : int; (* results the sink accepted *)
  budget : Budget.t;
  sink : int -> Node_set.t list -> unit;
  fault : Scoll.Fault.t;
}

let commit_root rooted root =
  (* the branch has run, so nothing writes this buffer any more: take it
     out of the table whether or not the root commits, so no result
     outlives its delivery *)
  let buffered =
    Scoll.Sync.with_lock rooted.stripes.(root land 63) (fun () ->
        let rs = rooted.buffers.(root) in
        rooted.buffers.(root) <- [];
        rs)
  in
  if Budget.live rooted.budget then
    Scoll.Sync.with_lock rooted.commit_lock (fun () ->
        let rs = List.rev buffered in
        (* the caller's sink runs FIRST: only once it has durably accepted
           the whole root (it may raise — injected fault, full disk) is
           the root recorded as retired. A sink failure therefore leaves
           the root uncommitted and a resume reruns it; the caller is
           responsible for discarding whatever partial output its sink
           produced before failing (the stream format's clean-prefix
           truncation exists for exactly that). *)
        rooted.sink root rs;
        List.iter (fun _ -> Budget.note_result rooted.budget) rs;
        rooted.retired <- root :: rooted.retired;
        rooted.committed <- rooted.committed + List.length rs)

type shared = {
  deques : work Scoll.Deque.t array; (* one per worker, mutex-sharded *)
  locks : Mutex.t array;
  pending : int Atomic.t;
      (* work items created and not yet retired; children are registered
         before their parent retires, so 0 means no work exists anywhere *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first task crash, re-raised after the join. Without this a
         crashed task never retires its pending count, so every other
         worker sleeps on [pending > 0] forever *)
}

(* What one worker hands back after the join. *)
type worker_result = {
  w_results : int; (* results this worker's tasks produced *)
  w_tasks : int;
  w_steals : int;
  w_splits : int;
  w_obs : Scliques_obs.Obs.t option;
}

let run_worker ~id ~g ~s ~rule ~min_size ~cache_capacity ~observed ~split_depth
    ~split_width ~split_min_subtree ~shared ~rooted () =
  (* per-worker observer, oracle and sink: domains share only the
     immutable graph and the scheduler state *)
  let obs = if observed then Some (Scliques_obs.Obs.create ()) else None in
  let nh = Neighborhood.create ~cache_capacity ?obs ~s g in
  let results = ref 0 in
  (* which root branch the task being executed belongs to; set by
     [execute] before the task body runs, read by the buffering sink *)
  let cur_root = ref (-1) in
  let yield c =
    incr results;
    let root = !cur_root in
    Scoll.Sync.with_lock rooted.stripes.(root land 63) (fun () ->
        rooted.buffers.(root) <- c :: rooted.buffers.(root))
  in
  let rn =
    (* each worker gets its own checker: the countdown is local *)
    Cs_cliques2.make_runner ~rule ~min_size
      ~should_continue:(Budget.checker rooted.budget) ?obs nh yield
  in
  let tasks = ref 0 and steals = ref 0 and splits = ref 0 in
  let workers = Array.length shared.deques in
  (* SAFETY: the array is built before the spawn and never replaced; only
     the atomics inside it change *)
  let root_pending root = (rooted.root_pending.(root) [@lint.allow "domain-escape"]) in
  let pop_own () =
    Scoll.Sync.with_lock shared.locks.(id) (fun () ->
        Scoll.Deque.pop_back_opt shared.deques.(id))
  in
  let steal () =
    (* SAFETY: victims longest-backlog first; the unlocked length reads are
       only a heuristic ordering — the pop itself is under the victim's
       lock, so a torn or stale length costs a wasted probe, never a task *)
    let victims =
      List.init workers (fun j ->
          ( (Scoll.Deque.length shared.deques.(j) [@lint.allow "atomicity"]
             [@lint.allow "domain-escape"]),
            j ))
      |> List.filter (fun (len, j) -> j <> id && len > 0)
      |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
    in
    List.fold_left
      (fun acc (_, j) ->
        match acc with
        | Some _ -> acc
        | None ->
            Scoll.Sync.with_lock shared.locks.(j) (fun () ->
                Scoll.Deque.pop_front_opt shared.deques.(j)))
      None victims
  in
  let push_children root children =
    ignore (Atomic.fetch_and_add shared.pending (List.length children));
    ignore (Atomic.fetch_and_add (root_pending root) (List.length children));
    Scoll.Sync.with_lock shared.locks.(id) (fun () ->
        List.iter
          (fun c -> Scoll.Deque.push_back shared.deques.(id) (Sub (root, c)))
          children)
  in
  let execute w =
    incr tasks;
    (* full budget poll at every task pickup — [Budget.poll], not the
       cadenced checker, so a cancel (client disconnect) or deadline is
       observed at the next work item even between the checker's
       [poll_every] strides. Once the budget is dead the task body is
       skipped entirely: materializing a [Root] costs a ball BFS, and a
       cancelled query must drain its queue in O(pending) bookkeeping,
       not O(pending) BFS work. Only the scheduler accounting below runs
       (a dead budget makes [commit_root] a no-op). *)
    let live = Budget.poll rooted.budget in
    let root = match w with Root v -> v | Sub (root, _) -> root in
    if live then begin
      let t =
        match w with
        | Root v -> Cs_cliques2.root_task nh v
        | Sub (_, t) -> t
      in
      cur_root := root;
      Scoll.Fault.check rooted.fault "par.task";
      if
        Cs_cliques2.task_depth t < split_depth
        && Cs_cliques2.task_width t >= split_width
      then begin
        (* oversized shallow subtree: do one visit step (emitting if
           maximal) and requeue the children so idle workers can take
           them. Only children whose candidate set clears the
           minimum-subtree threshold are worth a deque round-trip and a
           potential steal; tiny subtrees run right here, in cache, for
           less than their scheduling would cost (the over-splitting fix
           — BENCH_parallel.json showed 24k splits for 39k results). *)
        let children = Cs_cliques2.expand_task rn t in
        let stealable, tiny =
          List.partition
            (fun c -> Cs_cliques2.task_width c >= split_min_subtree)
            children
        in
        (match stealable with
        | [] -> ()
        | _ :: _ ->
            incr splits;
            push_children root stealable);
        List.iter (Cs_cliques2.run_task rn) tiny
      end
      else Cs_cliques2.run_task rn t
    end;
    (* children were registered above, so 1 -> 0 means the whole
       branch has run; the unique winner of that decrement commits *)
    if Atomic.fetch_and_add (root_pending root) (-1) = 1 then
      commit_root rooted root;
    Atomic.decr shared.pending
  in
  let execute w =
    (* a crash in a task body would leave [pending] above zero forever
       and put every other worker to sleep on it; record the first
       failure instead and let all loops drain. The handler does not
       re-raise here by design: [run] re-raises with the original
       backtrace after the domains are joined. *)
    (try execute w
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set shared.failed None (Some (e, bt))))
    [@lint.allow "exception-swallow"]
  in
  let backoff = ref 1e-5 in
  let rec loop () =
    match Atomic.get shared.failed with
    | Some _ -> () (* another worker crashed: stop draining, go join *)
    | None -> (
        match pop_own () with
        | Some w ->
            backoff := 1e-5;
            execute w;
            loop ()
        | None ->
            if Atomic.get shared.pending > 0 then begin
              (match steal () with
              | Some w ->
                  backoff := 1e-5;
                  incr steals;
                  execute w
              | None ->
                  (* work is in flight but nothing is stealable: sleep rather
                     than spin — the machine may have fewer cores than
                     workers, and a spinning thief would starve the owner *)
                  Unix.sleepf !backoff;
                  backoff := Float.min (2. *. !backoff) 1e-3);
              loop ()
            end)
  in
  loop ();
  (match obs with None -> () | Some _ -> Neighborhood.sync_obs nh);
  {
    w_results = !results;
    w_tasks = !tasks;
    w_steals = !steals;
    w_splits = !splits;
    w_obs = obs;
  }

(* OCaml 5.1's 64-bit runtime cap on live domains ([Max_domains],
   caml/domain.h) *)
let max_domains = 128

let run ?(split_depth = 3) ?(split_width = 8) ?(split_min_subtree = 8)
    ?(rule = Cs_cliques2.(Cs2 { pivot = Some Min_uncovered; feasibility = false }))
    ?(min_size = 0) ?(cache_capacity = 65536) ?obs ?(fault = Scoll.Fault.none) ?roots
    ~workers ~budget g ~s sink =
  if workers < 1 then invalid_arg "Parallel.run: workers must be >= 1";
  let observed = Option.is_some obs in
  let n = Graph.n g in
  let keep = Array.make (max n 1) (Option.is_none roots) in
  Option.iter (List.iter (fun v -> keep.(v) <- true)) roots;
  let roots = List.filter (fun v -> keep.(v)) (List.init n Fun.id) in
  let shared =
    {
      deques = Array.init workers (fun _ -> Scoll.Deque.create ());
      locks = Array.init workers (fun _ -> Mutex.create ());
      pending = Atomic.make (List.length roots);
      failed = Atomic.make None;
    }
  in
  (* deal roots round-robin, ascending toward the back: owners drain their
     own deque newest-first, so thieves (who take the front) steal the
     SMALLEST remaining root id — the branch with the largest candidate
     set, i.e. the heaviest work, which is what balancing wants moved.
     SAFETY: pre-spawn dealing — no helper domain exists yet, so these
     unlocked pushes cannot race with the locked owner/thief accesses *)
  List.iteri
    (fun i v ->
      (Scoll.Deque.push_back shared.deques.(i mod workers) (Root v)
      [@lint.allow "atomicity"]))
    roots;
  let rooted =
    {
      root_pending =
        Array.init (max n 1) (fun v -> Atomic.make (if keep.(v) then 1 else 0));
      stripes = Array.init 64 (fun _ -> Mutex.create ());
      buffers = Array.make (max n 1) [];
      commit_lock = Mutex.create ();
      retired = [];
      committed = 0;
      budget;
      sink;
      fault;
    }
  in
  let worker id () =
    run_worker ~id ~g ~s ~rule ~min_size ~cache_capacity ~observed ~split_depth
      ~split_width ~split_min_subtree ~shared ~rooted ()
  in
  (* a failed spawn (the runtime's domain cap, an injected fault) must
     not leave the helpers spawned before it running: they would drain
     the run and call [sink] after [run] raised. Recording the failure
     stops every worker loop; join them, then re-raise *)
  let rec spawn helpers i =
    if i = workers then List.rev helpers
    else
      match
        Scoll.Fault.check fault "par.spawn";
        Domain.spawn (worker i)
      with
      | d -> spawn (d :: helpers) (i + 1)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set shared.failed None (Some (e, bt)));
          List.iter (fun d -> ignore (Domain.join d)) helpers;
          Printexc.raise_with_backtrace e bt
  in
  let helpers = spawn [] 1 in
  (* worker 0 runs in the calling domain *)
  let own = worker 0 () in
  let parts = own :: List.map Domain.join helpers in
  (* surface a task (or sink) crash only after every domain is joined —
     raising earlier would leak helper domains still sleeping on
     [pending]. The caller can still checkpoint what the sink accepted
     before the crash, since uncommitted roots simply rerun on resume *)
  (match Atomic.get shared.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  (match obs with
  | None -> ()
  | Some into ->
      List.iteri
        (fun i p ->
          match p.w_obs with
          | None -> ()
          | Some o ->
              let set name v =
                Scliques_obs.Counters.set
                  (Scliques_obs.Obs.counter into (Printf.sprintf "par.worker%d.%s" i name))
                  v
              in
              set "results" p.w_results;
              set "tasks" p.w_tasks;
              Scliques_obs.Obs.merge_into ~into o)
        parts;
      let set name v = Scliques_obs.Counters.set (Scliques_obs.Obs.counter into name) v in
      let total f = List.fold_left (fun acc p -> acc + f p) 0 parts in
      let loads = List.map (fun p -> p.w_results) parts in
      set "par.workers" workers;
      (* SAFETY: every helper domain is joined above — this read happens
         after quiescence, so the commit lock is not needed *)
      set "par.results" (rooted.committed [@lint.allow "atomicity"]);
      set "par.tasks" (total (fun p -> p.w_tasks));
      set "par.steals" (total (fun p -> p.w_steals));
      set "par.splits" (total (fun p -> p.w_splits));
      set "par.max_worker_results" (List.fold_left Int.max 0 loads);
      set "par.min_worker_results" (List.fold_left Int.min max_int loads));
  (* SAFETY: as above, read after every domain joined *)
  (Budget.status budget, List.sort Int.compare (rooted.retired [@lint.allow "atomicity"]))

let enumerate ~workers ?split_depth ?split_width ?split_min_subtree ?rule ?min_size
    ?cache_capacity ?obs g ~s =
  (* the sink runs under the commit lock, one root at a time *)
  let acc = ref [] in
  let (_ : Budget.outcome), (_ : int list) =
    run ?split_depth ?split_width ?split_min_subtree ?rule ?min_size ?cache_capacity ?obs
      ~workers ~budget:(Budget.unlimited ()) g ~s
      (fun _root rs -> acc := List.rev_append rs !acc)
  in
  (* canonical output: sorted by Node_set.compare, so the result list is
     identical for every worker count and every steal schedule (tasks
     partition the output, only their placement varies; sorting removes
     the arrival order) *)
  List.sort Node_set.compare !acc
