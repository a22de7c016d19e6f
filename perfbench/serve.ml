(* serve-churn: one scliques-daemon child process, a closed-loop reader
   and an open-loop writer sharing its graph. Timings are taken in this
   process, on the client side of the socket; the daemon's peak memory
   is read from its /proc entry. *)

module G = Sgraph.Graph
module E = Scliques_core.Enumerate
module Nh = Scliques_core.Neighborhood
module Stream = Scliques_core.Result_io.Stream
module Server = Scliques_daemon.Server
module Client = Scliques_daemon.Client
module P = Scliques_daemon.Protocol

let now = Report.now
let s = Inputs.s
let graph_name = "g"

(* set-up is repeated and its median kept; 100 queries keep 10 beyond
   the p90 *)
let setups = 9
let min_queries = 100
let twin_reps = 5

let daemon_args ~sock ~graph ~state =
  [
    "--socket"; sock; "--graph"; graph_name ^ "=" ^ graph; "--workers"; "1";
    "--state-dir"; state; "--compact-threshold"; string_of_int Inputs.serve_threshold;
  ]

type daemon = { pid : int; sock : string; state : string }

exception Daemon_exited of Unix.process_status

let spawn ~exe ~dir ~graph =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" and state = Filename.concat dir "state" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list (exe :: daemon_args ~sock ~graph ~state) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process exe argv Unix.stdin log log)
  in
  { pid; sock; state }

(* SIGTERM drains the daemon; its exit status is part of the checks *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  snd (Unix.waitpid [] d.pid)

(* the socket file appears once the daemon listens; poll until then,
   giving up when the child has exited (reaped here, so not to be
   stopped) or 30 s have passed *)
let connect d =
  let deadline = now () +. 30. in
  let rec go () =
    match Client.connect (Server.Unix_socket d.sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _, status -> raise (Daemon_exited status));
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let query id =
  {
    P.q_id = id;
    q_engine = P.Alg E.Cs2_pf;
    q_graph = graph_name;
    q_s = s;
    q_min_size = 0;
    q_deadline_s = None;
    q_max_results = None;
    q_resume = None;
  }

type answer = {
  sent : float;
  first : float;
  finished : float;
  outcome : Client.query_outcome;
  results : string list;  (** as received *)
}

let ask ?(on_frame = ignore) c id =
  let results = ref [] and first = ref Float.nan in
  let sent = now () in
  let outcome =
    Client.run_query c (query id) ~on_result:(fun x ->
        let t = now () in
        if Float.is_nan !first then first := t;
        on_frame t;
        results := x :: !results)
  in
  { sent; first = !first; finished = now (); outcome; results = !results }

let sorted l = List.sort String.compare l

let ms a b = (b -. a) *. 1000.

(* rebases the daemon makes for [count] single-edit mutations: the same
   rule as the server, a fold into a fresh base whenever the overlay's
   distance from its base reaches the threshold *)
let expected_rebases g0 edits count =
  let o = ref (Sgraph.Overlay.of_graph g0) and rebases = ref 0 in
  for j = 0 to count - 1 do
    Sgraph.Overlay.apply !o [ edits.(j mod Array.length edits) ];
    if Sgraph.Overlay.delta_size !o >= Inputs.serve_threshold then begin
      incr rebases;
      o := Sgraph.Overlay.of_graph (Sgraph.Overlay.compact !o)
    end
  done;
  !rebases

(* the generation number in the manifest counts the rebases *)
let rebases_done d =
  let path = Filename.concat d.state (graph_name ^ ".manifest") in
  let ic = open_in path in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  Scanf.sscanf line "SGRMANI1 %d %d" (fun gen _ -> gen)

let serve_churn ~inputs ~work ~seconds ~daemon_exe tr r =
  let graph = Inputs.graph inputs 0 in
  let g0 = ref (Sgraph.Snapshot.load graph) in
  let loads =
    Array.init Batch.setup_reps (fun i ->
        let t0 = now () in
        g0 := Trace.span tr ~item:i "snapshot.load" (fun () -> Sgraph.Snapshot.load graph);
        now () -. t0)
  in
  let g0 = !g0 in
  let edits = Array.of_list (snd (Sgraph.Diff.load (Inputs.edits inputs))) in
  let cycle = Array.length edits in
  (* each mutation's wire script names the edge count it applies to *)
  let scripts =
    let m = ref (G.m g0) in
    Array.map
      (fun e ->
        let script = Sgraph.Diff.to_string ~base_n:(G.n g0) ~base_m:!m [ e ] in
        (m := match e with Sgraph.Overlay.Delete _ -> !m - 1 | Sgraph.Overlay.Insert _ -> !m + 1);
        script)
      edits
  in
  let mutations =
    cycle * Int.max 7 (int_of_float (Inputs.serve_rate *. seconds) / cycle)
  in
  (* set-up: spawn until the socket accepts and the magics are
     exchanged; then one warm-up complete answer, timed on its own. The
     warm-up is a cold query on the serving path, whose run medians moved
     30% within an hour on a shared 2-core host, against under 20% for
     process start-up and graph loading, so it is not part of setup_s. *)
  let setup_times = Array.make setups 0. and warmup_times = Array.make setups 0. in
  let warmups = ref [] in
  let start i =
    let t0 = now () in
    let d =
      Trace.span tr ~item:i "daemon.spawn" (fun () ->
          spawn ~exe:daemon_exe ~dir:(Filename.concat work (Printf.sprintf "daemon-%d" i)) ~graph)
    in
    match
      let c = Trace.span tr ~item:i "client.connect" (fun () -> connect d) in
      let t1 = now () in
      let a = Trace.span tr ~item:i "client.warmup" (fun () -> ask c 1_000_000) in
      (c, a, t1)
    with
    | c, a, t1 ->
        setup_times.(i) <- t1 -. t0;
        warmup_times.(i) <- ms t1 a.finished;
        warmups := a :: !warmups;
        (d, c)
    | exception (Daemon_exited _ as e) -> raise e
    | exception e ->
        ignore (stop d);
        raise e
  in
  for i = 0 to setups - 2 do
    let d, c = start i in
    Client.close c;
    match stop d with
    | Unix.WEXITED 0 -> ()
    | _ -> Report.fail r "set-up daemon %d did not drain cleanly" i
  done;
  let d, reader_c = start (setups - 1) in
  Report.metric r "setup_s" (Pct.median setup_times);
  let rtr = Trace.create (Trace.on tr) and wtr = Trace.create (Trace.on tr) in
  let answers = ref [] and gaps = ref [] in
  let acks = Array.make mutations 0. and late = Array.make mutations 0. in
  let writer_errors = ref [] in
  let load_s = ref 0. and epoch = ref (-1) and peak = ref 0. in
  let minor_words = ref 0. in
  let rebases = ref (-1) in
  let status =
    Fun.protect
      ~finally:(fun () -> Client.close reader_c)
      (fun () ->
        match
          let writer_c = Client.connect (Server.Unix_socket d.sock) in
          let writer_done = Atomic.make false in
          let minor0 = Gc.minor_words () in
          let t_start = now () in
          let writer () =
            Fun.protect
              ~finally:(fun () ->
                Atomic.set writer_done true;
                Client.close writer_c)
              (fun () ->
                for j = 0 to mutations - 1 do
                  let due = t_start +. (float_of_int j /. Inputs.serve_rate) in
                  let wait = due -. now () in
                  if wait > 0. then Unix.sleepf wait;
                  late.(j) <- ms due (now ());
                  let outcome =
                    Trace.span wtr ~item:(j + 1) "client.mutate" (fun () ->
                        Client.mutate writer_c ~id:(j + 1) ~graph:graph_name
                          ~script:scripts.(j mod cycle))
                  in
                  acks.(j) <- ms due (now ());
                  match outcome with
                  | Client.Applied { epoch; _ } when epoch = j + 1 -> ()
                  | Client.Applied { epoch; _ } ->
                      writer_errors :=
                        Printf.sprintf "mutation %d acked at epoch %d" (j + 1) epoch
                        :: !writer_errors
                  | Client.Mutate_throttled _ | Client.Mutate_failed _
                  | Client.Mutate_disconnected ->
                      writer_errors :=
                        Printf.sprintf "mutation %d not applied" (j + 1) :: !writer_errors
                done)
          in
          let wt = Thread.create writer () in
          let last = ref Float.nan in
          let on_frame =
            if Trace.on tr then fun t ->
              if not (Float.is_nan !last) then gaps := ((t -. !last) *. 1e6) :: !gaps;
              last := t
            else ignore
          in
          let i = ref 0 in
          while not (Atomic.get writer_done) || !i < min_queries do
            incr i;
            last := Float.nan;
            answers := Trace.span rtr ~item:!i "client.query" (fun () -> ask ~on_frame reader_c !i) :: !answers
          done;
          load_s := now () -. t_start;
          minor_words := Gc.minor_words () -. minor0;
          Thread.join wt;
          epoch :=
            (match Client.list_graphs reader_c with
            | [ gi ] -> gi.P.g_epoch
            | _ -> -1);
          peak := Report.peak_rss_mb d.pid;
          rebases := rebases_done d
        with
        | () -> stop d
        | exception e ->
            ignore (stop d);
            raise e)
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Report.fail r "daemon did not drain cleanly");
  List.iter (fun e -> Report.fail r "%s" e) (List.rev !writer_errors);
  Report.metric r "peak_rss_mb" !peak;
  (* checks, outside the timed phase *)
  let references =
    Array.init cycle (fun i ->
        sorted (List.map Stream.encode_set (fst (Stream.read_results (Inputs.reference inputs i)))))
  in
  let good (a : answer) =
    match a.outcome with
    | Client.Finished { P.d_outcome = Scliques_core.Budget.Complete; d_emitted; _ }
      when d_emitted = List.length a.results ->
        let got = sorted a.results in
        Array.exists (List.equal String.equal got) references
    | _ -> false
  in
  let answers = List.rev !answers in
  let verified = List.filter good answers in
  List.iteri
    (fun i a -> if not (good a) then Report.fail r "query %d: not one state's answer" (i + 1))
    answers;
  List.iter
    (fun (a : answer) ->
      if not (good a && List.equal String.equal (sorted a.results) references.(0)) then
        Report.fail r "warm-up answer differs from the start state's")
    !warmups;
  if !epoch <> mutations then
    Report.fail r "final epoch %d, but %d edits were acked" !epoch mutations;
  let want_rebases = expected_rebases g0 edits mutations in
  if !rebases <> want_rebases || !rebases < 1 then
    Report.fail r "%d rebases, expected %d" !rebases want_rebases;
  r.Report.attempted <- List.length answers + mutations;
  let frames =
    match !warmups with a :: _ -> List.length a.results + 1 | [] -> 0
  in
  Report.counter r "client.frames_per_query" frames;
  Report.counter r "daemon.rebases" !rebases;
  Report.detail r "daemon.rebases" ~unit:"count" (float_of_int !rebases);
  Report.info r "daemon_flags"
    (String.concat " " (daemon_args ~sock:"SOCK" ~graph:"graph.sgr" ~state:"STATE"));
  Report.info r "mutations" (string_of_int mutations);
  Report.info r "queries" (string_of_int (List.length answers));
  let arr f = Array.of_list (List.map f answers) in
  let done_ms = arr (fun a -> ms a.sent a.finished) in
  (* the op is one reader query, from sending it to its Done frame *)
  Batch.op_ms r done_ms;
  (* the client's allocation (decoding frames, sending mutations) per
     query; the daemon's heap is another process's *)
  Report.layer r "gc.minor_words_per_op"
    (!minor_words /. float_of_int (Int.max 1 (List.length answers)));
  let detail_ms = Batch.detail_ms r in
  detail_ms "client.warmup_ms" (Pct.median warmup_times);
  Report.detail r "queries_per_s" ~unit:"1/s"
    (float_of_int (List.length verified) /. !load_s);
  detail_ms "query_done_ms.p90" (Pct.percentile ~p:90 done_ms);
  detail_ms "query_first_ms.p50" (Pct.percentile ~p:50 (arr (fun a -> ms a.sent a.first)));
  detail_ms "query_first_ms.p90" (Pct.percentile ~p:90 (arr (fun a -> ms a.sent a.first)));
  detail_ms "mutate_ack_ms.p50" (Pct.percentile ~p:50 acks);
  detail_ms "mutate_ack_ms.p90" (Pct.percentile ~p:90 acks);
  detail_ms "writer.lateness_ms" (Pct.percentile ~p:90 late);
  if Trace.on tr then begin
    Report.layer r "snapshot.load_ms" (1000. *. Pct.median loads);
    Report.detail r "client.frames_per_query" ~unit:"count" (float_of_int frames);
    Report.detail r "client.frame_gap_us.p50" ~unit:"us" (Pct.median (Array.of_list !gaps));
    (* the twin: one reader query and one mutation replayed in-process on
       the start state, which the writer's whole cycles end on *)
    let store = Nh.Shared.create ~s g0 in
    let enumerate () =
      let sets = ref [] in
      ignore (E.run ~nh:(Nh.of_shared store) E.Cs2_pf g0 ~s (fun c -> sets := c :: !sets));
      List.rev !sets
    in
    ignore (enumerate ());
    let median_ms name f =
      let last = ref None in
      let times =
        Array.init twin_reps (fun i ->
            let t0 = now () in
            last := Some (Trace.span tr ~item:i name f);
            ms t0 (now ()))
      in
      (Pct.median times, Option.get !last)
    in
    let enum_ms, sets = median_ms "twin.enumerate" enumerate in
    let encode_ms, frames =
      median_ms "twin.encode" (fun () ->
          List.map
            (fun c -> P.encode_frame (P.encode_response (P.Result (1, Stream.encode_set c))))
            sets
          @ [
              P.encode_frame
                (P.encode_response
                   (P.Done
                      {
                        P.d_id = 1;
                        d_outcome = Scliques_core.Budget.Complete;
                        d_emitted = List.length sets;
                        d_resume = None;
                      }));
            ])
    in
    let decode_ms, _ =
      median_ms "twin.decode" (fun () ->
          List.map (fun f -> P.decode_response (fst (P.decode_frame f ~pos:0))) frames)
    in
    let mutate_ms, _ =
      median_ms "twin.mutate" (fun () ->
          let _, batch = Sgraph.Diff.of_string ~file:"twin" scripts.(0) in
          let after = Sgraph.Diff.apply g0 batch in
          Nh.Shared.advance store ~after ~touched:(Sgraph.Overlay.touched batch))
    in
    (* the engine's share of a query is the twin's enumeration; the rest
       of the Done latency is codec, scheduler, framing and wire *)
    Report.layer r "engine.self_ms" enum_ms;
    Report.layer r "overhead_ms" (Pct.median done_ms -. enum_ms);
    detail_ms "twin.encode_ms" encode_ms;
    detail_ms "twin.decode_ms" decode_ms;
    detail_ms "serve.overhead_ms" (Pct.median done_ms -. enum_ms -. encode_ms -. decode_ms);
    detail_ms "twin.mutate_ms" mutate_ms;
    detail_ms "mutate.overhead_ms" (Pct.percentile ~p:50 acks -. mutate_ms)
  end;
  [ rtr; wtr ]
