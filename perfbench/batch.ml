(* The three batch workloads: each timed run is this fresh process,
   reading only the prepared inputs, with [Report] collecting what
   run.py prints. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module Nh = Scliques_core.Neighborhood
module Stream = Scliques_core.Result_io.Stream
module Ridx = Scliques_core.Result_io.Index
module Obs = Scliques_obs.Obs

let s = Inputs.s
let now = Report.now

(* Set-up is a few 5-10 ms loads, so it is repeated and its median
   kept: [setup_reps] times, the snapshots at [paths] (plus [extra]),
   each validated by the loader itself. A user's process loads into a
   fresh heap, so each repetition starts from a collected one rather
   than paying for the garbage of the one before. *)
let setup_reps = 15

let setup tr r paths ~extra =
  let times = Array.make setup_reps 0. and loads = ref [] in
  let load_all i =
    Gc.full_major ();
    let t0 = now () in
    let gs =
      List.map
        (fun path ->
          let t = now () in
          let g = Trace.span tr ~item:i "snapshot.load" (fun () -> Sgraph.Snapshot.load path) in
          loads := (now () -. t) :: !loads;
          g)
        paths
    in
    extra ();
    times.(i) <- now () -. t0;
    gs
  in
  let gs = ref (load_all 0) in
  for i = 1 to setup_reps - 1 do
    gs := load_all i
  done;
  Report.metric r "setup_s" (Pct.median times);
  if Trace.on tr then
    Report.layer r "snapshot.load_ms" (1000. *. Pct.median (Array.of_list !loads));
  Array.of_list !gs

(* A run's work is a function of [seconds] alone, never of how fast the
   ops went, so every run of one seed does the same ops and a faster
   program finishes early: [op_count ~seconds ~op_s ~min] is [seconds] over
   [op_s], an op's duration on the 2-core host this was tuned on, and at
   least [min]. *)
let op_count ~seconds ~op_s ~min = Int.max min (int_of_float (seconds /. op_s))

let repeat n op =
  for i = 0 to n - 1 do
    op i
  done;
  n

let counter obs name =
  Option.value (Scliques_obs.Counters.find (Obs.counters obs) name) ~default:0

let clean = function `Clean -> true | `Torn -> false

let ratio a b = float_of_int a /. float_of_int (Int.max 1 b)

(* a deterministic counter of one traced op, kept both for the
   across-runs check and as a figure of the record *)
let count r name v =
  Report.counter r name v;
  Report.detail r name ~unit:"count" (float_of_int v)

let record_nh r obs =
  let hits = counter obs "nh.cache_hits" and misses = counter obs "nh.cache_misses" in
  Report.counter r "nh.cache_hits" hits;
  Report.counter r "nh.cache_misses" misses;
  count r "nh.bfs_expansions" (counter obs "nh.bfs_expansions");
  Report.detail r "nh.cache_hit_rate" ~unit:"ratio" (ratio hits (hits + misses))

(* Every workload's op, whatever it is, times the same way: [op_ms.p50]
   end to end, and per layer the engine call's self time and the rest of
   the op ([overhead_ms]: result I/O, sidecars, edits, protocol). *)
let op_ms r times = Report.metric r "op_ms.p50" (Pct.median times)

let engine_split r ~ops ~engine =
  Report.layer r "engine.self_ms" (Pct.median engine);
  Report.layer r "overhead_ms" (Pct.median (Array.map2 ( -. ) ops engine))

let gc_per_op r minor0 ops =
  Report.layer r "gc.minor_words_per_op"
    ((Gc.minor_words () -. minor0) /. float_of_int (Int.max 1 ops))

let peak r = Report.metric r "peak_rss_mb" (Report.peak_rss_mb (Unix.getpid ()))

let per_op spans ~self ~op name = Pct.median (Trace.per_op_ms spans ~self ~op name)

let detail_ms r name v = Report.detail r name ~unit:"ms" v

let sum = Array.fold_left ( +. ) 0.

(* ---------- enum-dblp ---------- *)

let enum_dblp ~inputs ~work ~seconds tr r =
  let g = (setup tr r [ Inputs.graph inputs 0 ] ~extra:ignore).(0) in
  let n = G.n g in
  let on = Trace.on tr in
  let results = ref 0 and times = ref [] in
  let outputs = ref [] in
  let obs_of = ref [] in
  let minor0 = Gc.minor_words () in
  let op i =
    let path = Filename.concat work (Printf.sprintf "enum-%d.sclqs" i) in
    let obs = if on then Some (Obs.create ()) else None in
    let count = ref 0 in
    let t0 = now () in
    let report =
      Trace.span tr ~item:i "enum.op" (fun () ->
          let w = Trace.span tr "stream.open" (fun () -> Stream.open_writer path) in
          let sink =
            if on then fun c ->
              Trace.span tr ~item:!count "stream.write" (fun () -> Stream.write_set w c);
              incr count
            else fun c ->
              Stream.write_set w c;
              incr count
          in
          let report =
            Trace.span tr "enumerate.run" (fun () -> E.run ?obs E.Cs2_pf g ~s sink)
          in
          Trace.span tr "stream.close" (fun () -> Stream.close w);
          let fingerprint =
            if on then fun root ->
              Trace.span tr ~item:root "index.fingerprint" (fun () ->
                  Nh.root_fingerprint ~s g root)
            else Nh.root_fingerprint ~s g
          in
          let idx = Trace.span tr "index.build" (fun () -> Ridx.build ~s ~n ~fingerprint path) in
          Trace.span tr "index.save" (fun () -> Ridx.save idx (Ridx.path_for path));
          report)
    in
    times := ((now () -. t0) *. 1000.) :: !times;
    results := !results + !count;
    outputs := (path, report.E.outcome, !count) :: !outputs;
    Option.iter (fun o -> obs_of := o :: !obs_of) obs
  in
  let ops = repeat (op_count ~seconds ~op_s:6.5 ~min:2) op in
  gc_per_op r minor0 ops;
  peak r;
  r.Report.attempted <- ops;
  let times = Array.of_list !times in
  op_ms r times;
  Report.detail r "results_per_s" ~unit:"1/s" (float_of_int !results /. (sum times /. 1000.));
  (* checks, outside the timed phase *)
  let want, _ = Stream.read_results (Inputs.reference inputs 0) in
  List.iteri
    (fun i (path, outcome, count) ->
      let got, tail = Stream.read_results path in
      let bytes = (Unix.stat path).Unix.st_size in
      (match outcome with
      | Scliques_core.Budget.Complete -> ()
      | Scliques_core.Budget.Truncated _ -> Report.fail r "%s: run truncated" path);
      if not (clean tail && List.equal NS.equal (List.sort NS.compare got) want) then
        Report.fail r "%s: stream differs from the reference answer" path;
      (match Ridx.load (Ridx.path_for path) with
      | idx when idx.Ridx.stream_len = bytes && Ridx.n idx = n && idx.Ridx.s = s -> ()
      | _ -> Report.fail r "%s: sidecar does not describe the stream" path
      | exception Sgraph.Io_error.Parse_error { msg; _ } ->
          Report.fail r "%s: sidecar refused: %s" path msg);
      (* every op wrote the same bytes; the first one is recorded *)
      if i = 0 then begin
        Report.counter r "results" count;
        Report.counter r "stream.bytes" bytes;
        Report.detail r "stream.bytes_per_result" ~unit:"B" (ratio bytes count)
      end;
      Sys.remove path;
      Sys.remove (Ridx.path_for path))
    !outputs;
  match !obs_of with
  | [] -> ()
  | obs :: _ ->
      record_nh r obs;
      let calls = counter obs "cs2.calls" in
      Report.counter r "cs2.calls" calls;
      count r "cs2.pivot_prunes" (counter obs "cs2.pivot_prunes");
      count r "cs2.feasibility_prunes" (counter obs "cs2.feasibility_prunes");
      Report.detail r "cs2.calls_per_result" ~unit:"count"
        (ratio calls (counter obs "cs2.emits"));
      let spans = Trace.spans [ tr ] in
      let self = Some (Trace.self_ms spans) in
      let op = "enum.op" in
      engine_split r
        ~ops:(Trace.per_op_ms spans ~self:None ~op op)
        ~engine:(Trace.per_op_ms spans ~self ~op "enumerate.run");
      detail_ms r "stream.write_ms"
        (Pct.median
           (Array.map2 ( +. )
              (Trace.per_op_ms spans ~self:None ~op "stream.write")
              (Trace.per_op_ms spans ~self:None ~op "stream.close")));
      detail_ms r "index.build_ms" (per_op spans ~self ~op "index.build");
      detail_ms r "index.fingerprint_ms" (per_op spans ~self:None ~op "index.fingerprint");
      detail_ms r "index.save_ms" (per_op spans ~self:None ~op "index.save")

(* ---------- pd-er ---------- *)

let pd_er ~inputs ~work:_ ~seconds tr r =
  let graphs = List.init Inputs.pd_graphs (Inputs.graph inputs) in
  let graphs = setup tr r graphs ~extra:ignore in
  let k = Inputs.pd_k in
  let results = ref 0 and times = ref [] in
  let gaps = ref [] in
  let answers = ref [] in
  let obs_of = ref [] in
  let minor0 = Gc.minor_words () in
  let op i =
    let which = i mod Inputs.pd_graphs in
    let g = graphs.(which) in
    let obs = if Trace.on tr then Some (Obs.create ()) else None in
    let stamps = Array.make k 0. in
    let got = ref [] and count = ref 0 in
    let budget = Scliques_core.Budget.create ~max_results:k () in
    let t0 = now () in
    let report =
      Trace.span tr ~item:i "pd.op" (fun () ->
          Trace.span tr "enumerate.run" (fun () ->
              E.run ?obs ~budget E.Poly_delay g ~s (fun c ->
                  if !count < k then stamps.(!count) <- now ();
                  got := c :: !got;
                  incr count)))
    in
    times := ((now () -. t0) *. 1000.) :: !times;
    let emitted = Int.min !count k in
    results := !results + !count;
    for j = 1 to emitted - 1 do
      gaps := ((stamps.(j) -. stamps.(j - 1)) *. 1000.) :: !gaps
    done;
    answers := (which, report.E.outcome, !count, List.rev !got) :: !answers;
    Option.iter (fun o -> obs_of := o :: !obs_of) obs
  in
  (* each round visits every graph once *)
  let ops = repeat (Inputs.pd_graphs * op_count ~seconds ~op_s:18. ~min:1) op in
  gc_per_op r minor0 ops;
  peak r;
  r.Report.attempted <- ops;
  let times = Array.of_list !times in
  op_ms r times;
  Report.detail r "results_per_s" ~unit:"1/s" (float_of_int !results /. (sum times /. 1000.));
  let gaps = Array.of_list !gaps in
  if Pct.beyond ~p:99 (Array.length gaps) < 10 then
    Report.fail r "only %d delay samples: fewer than 10 beyond p99" (Array.length gaps);
  detail_ms r "delay_ms.p50" (Pct.percentile ~p:50 gaps);
  detail_ms r "delay_ms.p99" (Pct.percentile ~p:99 gaps);
  (* checks, outside the timed phase: what Verify.certify checks — every
     result a maximal connected s-clique, none twice — through the
     N^s-ball operators, since Verify.certify runs a whole-graph BFS per
     member and candidate node (hours at this size). A connected set has
     a one-node extension iff some node within distance s of every
     member is adjacent to one of them. *)
  let certify g results =
    let nh = Nh.create ~s g in
    let rec go prev = function
      | [] -> None
      | c :: rest ->
          let members = NS.to_list c in
          if (match prev with Some p -> NS.compare p c >= 0 | None -> false) then
            Some ("duplicate result " ^ NS.to_string c)
          else if
            not
              (Sgraph.Bfs.is_connected_subset g c
              && List.for_all
                   (fun u -> List.for_all (fun v -> Nh.within_distance nh u v) members)
                   members)
          then Some ("not a connected s-clique: " ^ NS.to_string c)
          else if not (NS.is_empty (NS.inter (Nh.ball_forall nh c) (Nh.adjacent_any nh c)))
          then Some ("not maximal: " ^ NS.to_string c)
          else go (Some c) rest
    in
    go None (List.sort NS.compare results)
  in
  let answers = List.rev !answers in
  List.iter
    (fun (which, outcome, count, got) ->
      (match outcome with
      | Scliques_core.Budget.Truncated Scliques_core.Budget.Max_results -> ()
      | _ -> Report.fail r "PD run ended before %d results" k);
      if count <> k then Report.fail r "PD run emitted %d results, not %d" count k;
      (match certify graphs.(which) got with
      | None -> ()
      | Some msg -> Report.fail r "graph %d: %s" which msg);
      (* a later visit to the same graph must repeat the first exactly *)
      match List.find_opt (fun (w, _, _, _) -> w = which) answers with
      | Some (_, _, _, first) when not (List.equal NS.equal got first) ->
          Report.fail r "graph %d: PD runs of one process disagree" which
      | _ -> ())
    answers;
  (* counters of the first op, on graph 0 *)
  match List.rev !obs_of with
  | [] -> ()
  | obs :: _ ->
      record_nh r obs;
      let emits = counter obs "pd.emits" in
      List.iter
        (fun name -> Report.counter r name (counter obs name))
        [ "pd.emits"; "pd.extend_max_calls" ];
      List.iter
        (fun name -> count r name (counter obs name))
        [ "pd.index_duplicates"; "pd.queue_high_water"; "pd.max_extend_calls_between_emits" ];
      Report.detail r "pd.extend_calls_per_result" ~unit:"count"
        (ratio (counter obs "pd.extend_max_calls") emits);
      let spans = Trace.spans [ tr ] in
      let op = "pd.op" in
      engine_split r
        ~ops:(Trace.per_op_ms spans ~self:None ~op op)
        ~engine:(Trace.per_op_ms spans ~self:(Some (Trace.self_ms spans)) ~op "enumerate.run")

(* ---------- refresh-er ---------- *)

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (really_input_string ic (in_channel_length ic))))

let refresh_er ~inputs ~work ~seconds tr r =
  let path = Filename.concat work "answer.sclqs" in
  copy_file (Inputs.prior inputs) path;
  copy_file (Ridx.path_for (Inputs.prior inputs)) (Ridx.path_for path);
  let script = ref [] in
  let g =
    (setup tr r [ Inputs.graph inputs 0 ] ~extra:(fun () ->
         script := snd (Sgraph.Diff.load (Inputs.edits inputs)))).(0)
  in
  let script = Array.of_list !script in
  let n = G.n g in
  let cur = ref g in
  let times = ref [] in
  let minor0 = Gc.minor_words () in
  let stats = ref [] in
  (* one edit, the way [scliques refresh -o] does it *)
  let op i =
    let edit = script.(i) in
    let t0 = now () in
    Trace.span tr ~item:i "refresh.op" (fun () ->
        let before = !cur in
        let after = Trace.span tr "diff.apply" (fun () -> Sgraph.Diff.apply before [ edit ]) in
        let prior, clean_len =
          Trace.span tr "stream.read" (fun () ->
              match Stream.read_records path with
              | payloads, clean_len, `Clean ->
                  (List.sort NS.compare (List.map Stream.decode_set payloads), clean_len)
              | _, _, `Torn -> failwith (path ^ ": torn result stream"))
        in
        let idx = Trace.span tr "index.load" (fun () -> Ridx.load (Ridx.path_for path)) in
        if not (idx.Ridx.stream_len = clean_len && idx.Ridx.s = s && Ridx.n idx = n) then
          failwith (path ^ ": stale sidecar");
        let touched = Sgraph.Overlay.touched [ edit ] in
        let delta =
          Trace.span tr "refresh.call" (fun () ->
              E.refresh ~engine:(`Seq E.Cs2_pf) ~edits:[ edit ]
                ~prior_fingerprint:(fun root -> Some idx.Ridx.entries.(root).Ridx.fingerprint)
                ~before ~after ~touched ~s ~prior ())
        in
        let sstats =
          Trace.span tr "index.splice" (fun () ->
              (* re-encode only the roots whose fingerprint moved *)
              let rerun = Hashtbl.create 16 in
              List.iter
                (fun (root, fp) ->
                  if idx.Ridx.entries.(root).Ridx.fingerprint <> fp then
                    Hashtbl.replace rerun root (fp, ref []))
                delta.E.root_fingerprints;
              List.iter
                (fun c ->
                  match Hashtbl.find_opt rerun (NS.min_elt c) with
                  | Some (_, acc) -> acc := c :: !acc
                  | None -> ())
                delta.E.results;
              let patched =
                Hashtbl.fold (fun root (fp, acc) l -> (root, fp, List.rev !acc) :: l) rerun []
              in
              snd (Ridx.splice ~old_stream:path ~index:idx ~patched ~out:path))
        in
        cur := after;
        stats := (delta.E.roots_rerun, delta.E.roots_skipped, sstats) :: !stats);
    times := ((now () -. t0) *. 1000.) :: !times
  in
  let ops =
    repeat (Int.min (Array.length script) (op_count ~seconds ~op_s:0.75 ~min:10)) op
  in
  gc_per_op r minor0 ops;
  peak r;
  r.Report.attempted <- ops;
  op_ms r (Array.of_list !times);
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 !stats in
  let rerun = sum (fun (a, _, _) -> a) and skipped = sum (fun (_, b, _) -> b) in
  let fresh = sum (fun (_, _, st) -> st.Ridx.fresh_bytes) in
  let copied = sum (fun (_, _, st) -> st.Ridx.copied_bytes) in
  Report.counter r "refresh.roots_rerun" rerun;
  Report.counter r "refresh.roots_skipped" skipped;
  Report.counter r "index.splice_fresh_bytes" fresh;
  Report.counter r "index.splice_copied_bytes" copied;
  (* checks, outside the timed phase: the last stream against a full
     re-enumeration of the last graph *)
  let got, tail = Stream.read_results path in
  let want = Inputs.reference_answer !cur in
  if not (clean tail && List.equal NS.equal (List.sort NS.compare got) want) then
    Report.fail r "after %d edits the stream differs from a full re-enumeration" ops;
  (match Ridx.load (Ridx.path_for path) with
  | idx when idx.Ridx.stream_len = (Unix.stat path).Unix.st_size -> ()
  | _ -> Report.fail r "final sidecar does not describe the stream"
  | exception Sgraph.Io_error.Parse_error { msg; _ } -> Report.fail r "final sidecar refused: %s" msg);
  Sys.remove path;
  Sys.remove (Ridx.path_for path);
  if Trace.on tr then begin
    let edits = float_of_int ops in
    let per_edit name unit v = Report.detail r name ~unit (float_of_int v /. edits) in
    per_edit "refresh.roots_rerun" "count" rerun;
    per_edit "refresh.roots_skipped" "count" skipped;
    Report.detail r "refresh.skip_rate" ~unit:"ratio" (ratio skipped (rerun + skipped));
    per_edit "index.splice_fresh_bytes" "B" fresh;
    per_edit "index.splice_copied_bytes" "B" copied;
    let spans = Trace.spans [ tr ] in
    let op = "refresh.op" in
    engine_split r
      ~ops:(Trace.per_op_ms spans ~self:None ~op op)
      ~engine:(Trace.per_op_ms spans ~self:None ~op "refresh.call");
    List.iter
      (fun name -> detail_ms r (name ^ "_ms") (per_op spans ~self:None ~op name))
      [ "diff.apply"; "stream.read"; "index.load"; "index.splice" ]
  end
