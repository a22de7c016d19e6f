(* The serving layer: SCLQRPC1 protocol totality under byte-level fuzz,
   scheduler fairness and admission, daemon-vs-library differential
   equality, and the fault drill — injected socket failures and client
   disconnects must degrade to per-query errors, never a wedged daemon.

   Also pins the work-stealing engine's cancel bound: once a budget is
   dead, draining the remaining queue is pure bookkeeping (no root-ball
   BFS, no visits), so a disconnected client's query stops paying for
   enumeration within one poll cadence. *)

module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint
module Stream = Scliques_core.Result_io.Stream
module Neighborhood = Scliques_core.Neighborhood
module Parallel = Scliques_core.Parallel
module Obs = Scliques_obs.Obs
module Counters = Scliques_obs.Counters
module Fault = Scoll.Fault
module P = Scliques_daemon.Protocol
module Server = Scliques_daemon.Server
module Client = Scliques_daemon.Client
module Scheduler = Scliques_daemon.Scheduler

(* ---------- shared helpers ---------- *)

let gadget n = Sgraph.Gen.exponential_gadget n

let er seed ~n ~m = Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create seed) ~n ~m

let query ?(id = 1) ?(engine = P.Alg E.Cs2_pf) ?(min_size = 0) ?deadline
    ?max_results ?resume ~graph ~s () =
  {
    P.q_id = id;
    q_engine = engine;
    q_graph = graph;
    q_s = s;
    q_min_size = min_size;
    q_deadline_s = deadline;
    q_max_results = max_results;
    q_resume = resume;
  }

(* the library-side expectation: E.run's emission-order stream, encoded
   exactly as the daemon encodes result frames *)
let local_stream ?(min_size = 0) alg g ~s =
  let acc = ref [] in
  let report = E.run ~min_size alg g ~s (fun c -> acc := Stream.encode_set c :: !acc) in
  (match report.E.outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "local reference run truncated");
  List.rev !acc

let with_server ?(workers = 2) ?(max_queue = 16) ?compact_threshold ?quota
    ?state_dir ?sources ?fault graphs f =
  let path = Filename.temp_file "scliques_daemon" ".sock" in
  let srv =
    Server.create ~workers ~max_queue ?compact_threshold ?quota ?state_dir
      ?sources ?fault ~graphs (Server.Unix_socket path)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (Server.Unix_socket path) srv)

(* a scratch directory for the durable-state drills, wiped afterwards *)
let with_state_dir f =
  let dir = Filename.temp_file "scliques_state" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let with_client addr f =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let collect_query c q =
  let acc = ref [] in
  let outcome = Client.run_query c ~on_result:(fun r -> acc := r :: !acc) q in
  (outcome, List.rev !acc)

let finished_done = function
  | Client.Finished d -> d
  | Client.Refused _ -> Alcotest.fail "query refused"
  | Client.Throttled _ -> Alcotest.fail "query throttled"
  | Client.Failed { msg; _ } -> Alcotest.fail ("query failed: " ^ msg)
  | Client.Disconnected -> Alcotest.fail "daemon hung up"

(* spin until the daemon's accounting drains, or fail *)
let wait_idle srv =
  let rec go n =
    let st = Server.stats srv in
    if st.Server.running = 0 && st.Server.queued = 0 && st.Server.live_queries = 0
    then ()
    else if n = 0 then
      Alcotest.failf "daemon did not drain: running=%d queued=%d live=%d"
        st.Server.running st.Server.queued st.Server.live_queries
    else begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go 500

(* ---------- protocol: round trips and byte-level fuzz ---------- *)

let gen_ns =
  QCheck2.Gen.(map NS.of_list (list_size (int_range 0 6) (int_range 0 60)))

let gen_state =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun l -> Ckpt.Roots { retired = List.sort_uniq Int.compare l })
          (list_size (int_range 0 8) (int_range 0 200));
        map2
          (fun index queue -> Ckpt.Pd_frontier { index; queue })
          (list_size (int_range 0 4) gen_ns)
          (list_size (int_range 0 4) gen_ns);
        map (fun m -> Ckpt.Brute_mask { next_mask = m }) (int_range 0 100000);
      ])

let gen_engine =
  QCheck2.Gen.oneofl
    [
      P.Alg E.Poly_delay; P.Alg E.Cs1; P.Alg E.Cs2; P.Alg E.Cs2_f;
      P.Alg E.Cs2_p; P.Alg E.Cs2_pf; P.Alg E.Brute; P.Par;
    ]

let gen_name =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 24))

let gen_query =
  QCheck2.Gen.(
    gen_engine >>= fun q_engine ->
    gen_name >>= fun q_graph ->
    int_range 0 1_000_000 >>= fun q_id ->
    int_range 1 5 >>= fun q_s ->
    int_range 0 20 >>= fun q_min_size ->
    option (map (fun f -> float_of_int f /. 8.) (int_range 0 800)) >>= fun q_deadline_s ->
    option (int_range 0 100000) >>= fun q_max_results ->
    option gen_state >>= fun q_resume ->
    return
      { P.q_id; q_engine; q_graph; q_s; q_min_size; q_deadline_s; q_max_results;
        q_resume })

(* Mutate payloads carry opaque script bytes — the protocol layer must
   round-trip them untouched (SGRDIFF1 validation happens later, with
   its own CRC discipline) *)
let gen_script =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 120))

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun q -> P.Query q) gen_query;
        (int_range 0 1_000_000 >>= fun m_id ->
         gen_name >>= fun m_graph ->
         gen_script >>= fun m_script ->
         return (P.Mutate { P.m_id; m_graph; m_script }));
        map2
          (fun rl_id rl_graph -> P.Reload { rl_id; rl_graph })
          (int_range 0 1_000_000) gen_name;
        map (fun id -> P.Cancel id) (int_range 0 1_000_000);
        map (fun h_token -> P.Hello { h_token }) gen_name;
        return P.List_graphs;
        return P.Ping;
      ])

let gen_outcome =
  QCheck2.Gen.oneofl
    [
      Budget.Complete;
      Budget.Truncated Budget.Deadline;
      Budget.Truncated Budget.Max_results;
      Budget.Truncated Budget.Max_cache_bytes;
      Budget.Truncated Budget.Cancelled;
    ]

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun id r -> P.Result (id, r)) (int_range 0 1000) gen_name;
        (gen_outcome >>= fun d_outcome ->
         int_range 0 1000 >>= fun d_id ->
         int_range 0 100000 >>= fun d_emitted ->
         option gen_state >>= fun d_resume ->
         return (P.Done { d_id; d_outcome; d_emitted; d_resume }));
        map2
          (fun b_id (b_running, b_queued) -> P.Busy { b_id; b_running; b_queued })
          (int_range 0 1000)
          (pair (int_range 0 64) (int_range 0 64));
        (int_range 0 1000 >>= fun e_id ->
         oneofl [ P.Bad_request; P.Server_error ] >>= fun e_code ->
         gen_name >>= fun e_msg ->
         return (P.Error_resp { e_id; e_code; e_msg }));
        map2
          (fun ra_id ra_seconds -> P.Retry_after { ra_id; ra_seconds })
          (int_range 0 1000)
          (map (fun f -> float_of_int f /. 16.) (int_range 0 1600));
        (int_range 0 1000 >>= fun mu_id ->
         int_range 0 100000 >>= fun mu_epoch ->
         int_range 0 1000 >>= fun mu_edits ->
         pair (int_range 0 1000) (int_range 0 100000) >>= fun (mu_n, mu_m) ->
         return (P.Mutated { mu_id; mu_epoch; mu_edits; mu_n; mu_m }));
        (int_range 0 1000 >>= fun rl_id ->
         int_range 0 100000 >>= fun rl_epoch ->
         pair (int_range 0 1000) (int_range 0 100000) >>= fun (rl_n, rl_m) ->
         return (P.Reloaded { rl_id; rl_epoch; rl_n; rl_m }));
        map
          (fun l ->
            P.Graphs
              (List.map
                 (fun (g_name, g_n, g_m, g_epoch) ->
                   { P.g_name; g_n; g_m; g_epoch })
                 l))
          (list_size (int_range 0 5)
             (quad gen_name (int_range 0 100000) (int_range 0 100000)
                (int_range 0 100000)));
        return P.Pong;
      ])

let binary_junk =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

(* bytewise re-encode equality sidesteps the need for a deep equal over
   queries, outcomes and checkpoint states *)
let prop_request_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"request decode inverts encode"
       gen_request (fun r ->
         let bytes = P.encode_request r in
         String.equal bytes (P.encode_request (P.decode_request bytes))))

let prop_response_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"response decode inverts encode"
       gen_response (fun r ->
         let bytes = P.encode_response r in
         String.equal bytes (P.encode_response (P.decode_response bytes))))

let prop_truncation_total =
  (* chopping a valid frame at EVERY byte boundary must raise the typed
     Truncated error — no Invalid_argument from a blind String.sub, no
     out-of-bounds, no hang *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"every frame prefix raises Truncated"
       gen_request (fun r ->
         let frame = P.encode_frame (P.encode_request r) in
         let ok = ref true in
         for k = 0 to String.length frame - 1 do
           (match P.decode_frame (String.sub frame 0 k) ~pos:0 with
           | _ -> ok := false
           | exception P.Error (P.Truncated _) -> ()
           | exception _ -> ok := false)
         done;
         !ok))

let prop_flips_typed =
  (* flip one random byte anywhere in the frame: decoding either fails
     with a typed protocol error or (length-field flips that still parse)
     succeeds — nothing else may escape *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"byte flips raise only typed errors"
       QCheck2.Gen.(triple gen_request (int_range 0 10000) (int_range 1 255))
       (fun (r, at, xor) ->
         let frame = Bytes.of_string (P.encode_frame (P.encode_request r)) in
         let at = at mod Bytes.length frame in
         Bytes.set frame at (Char.chr (Char.code (Bytes.get frame at) lxor xor));
         match P.decode_frame (Bytes.to_string frame) ~pos:0 with
         | _ -> true
         | exception P.Error _ -> true
         | exception _ -> false))

let prop_payload_crc_flip =
  (* a flip INSIDE the payload keeps the frame well-formed lengthwise, so
     the CRC must be what catches it *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"payload flips are CRC mismatches"
       QCheck2.Gen.(triple gen_request (int_range 0 10000) (int_range 1 255))
       (fun (r, at, xor) ->
         let payload = P.encode_request r in
         if String.length payload = 0 then true
         else begin
           let frame = Bytes.of_string (P.encode_frame payload) in
           let at = 8 + (at mod String.length payload) in
           Bytes.set frame at (Char.chr (Char.code (Bytes.get frame at) lxor xor));
           match P.decode_frame (Bytes.to_string frame) ~pos:0 with
           | _ -> false
           | exception P.Error P.Crc_mismatch -> true
           | exception _ -> false
         end))

let prop_decoders_total_on_junk =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"decoders are total on byte soup"
       binary_junk (fun junk ->
         let total f =
           match f junk with _ -> true | exception P.Error _ -> true | exception _ -> false
         in
         total P.decode_request && total P.decode_response
         && total (P.decode_frame ~pos:0)))

let prop_trailing_garbage_refused =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"trailing garbage is Bad_payload"
       QCheck2.Gen.(pair gen_request (int_range 0 255))
       (fun (r, byte) ->
         let bytes = P.encode_request r ^ String.make 1 (Char.chr byte) in
         match P.decode_request bytes with
         | _ -> false
         | exception P.Error (P.Bad_payload _) -> true
         | exception _ -> false))

let test_oversized_refused () =
  (* 0xFFFFFFFF length word: must refuse before allocating anything *)
  let junk = "\xff\xff\xff\xff\x00\x00\x00\x00" in
  (match P.decode_frame junk ~pos:0 with
  | _ -> Alcotest.fail "oversized frame decoded"
  | exception P.Error (P.Oversized _) -> ()
  | exception e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e));
  match P.encode_frame (String.make (P.max_payload + 1) 'x') with
  | _ -> Alcotest.fail "oversized encode accepted"
  | exception Invalid_argument _ -> ()

let test_input_frame_eof () =
  let path = Filename.temp_file "scliques_frame" ".bin" in
  let frame = P.encode_frame (P.encode_request P.Ping) in
  let write bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  let read_one () =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> P.input_frame ic)
  in
  (* clean EOF at a frame boundary: None, not an error *)
  write "";
  Alcotest.(check bool) "empty stream is a clean EOF" true (read_one () = None);
  write frame;
  (match read_one () with
  | Some payload -> Alcotest.(check string) "payload" (P.encode_request P.Ping) payload
  | None -> Alcotest.fail "whole frame read as EOF");
  (* torn frame: EOF mid-frame must be the typed Truncated, at every cut *)
  for k = 1 to String.length frame - 1 do
    write (String.sub frame 0 k);
    match read_one () with
    | _ -> Alcotest.failf "torn frame (cut at %d) decoded" k
    | exception P.Error (P.Truncated _) -> ()
    | exception e ->
        Alcotest.failf "torn frame (cut at %d): wrong error %s" k
          (Printexc.to_string e)
  done;
  Sys.remove path

let test_bad_magic () =
  let path = Filename.temp_file "scliques_magic" ".bin" in
  let oc = open_out_bin path in
  output_string oc "NOTMAGIC";
  close_out oc;
  let ic = open_in_bin path in
  (match P.input_magic ic with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception P.Error (P.Bad_magic _) -> ()
  | exception e -> Alcotest.failf "wrong error: %s" (Printexc.to_string e));
  close_in ic;
  Sys.remove path

(* ---------- scheduler ---------- *)

(* a gate the test holds closed while stacking up the backlog *)
let gate () =
  let open_ = Atomic.make false in
  let block () =
    while not (Atomic.get open_) do
      Thread.yield ()
    done
  in
  (open_, block)

let test_scheduler_fairness () =
  let sched = Scheduler.create ~workers:1 ~max_queue:10 in
  let opened, block = gate () in
  let order_lock = Mutex.create () in
  let order = ref [] in
  let note label () =
    Scoll.Sync.with_lock order_lock (fun () -> order := label :: !order)
  in
  let job label = { Scheduler.run = note label; abort = (fun () -> ()) } in
  (* occupy the one worker, then stack lane 1 twice and lane 2 once *)
  (match Scheduler.submit sched ~lane:9 { Scheduler.run = block; abort = (fun () -> ()) } with
  | `Accepted -> ()
  | _ -> Alcotest.fail "gate job refused");
  let rec wait_running n =
    if Scheduler.running sched = 1 then ()
    else if n = 0 then Alcotest.fail "gate job never started"
    else (Thread.delay 0.01; wait_running (n - 1))
  in
  wait_running 500;
  List.iter
    (fun (lane, label) ->
      match Scheduler.submit sched ~lane (job label) with
      | `Accepted -> ()
      | _ -> Alcotest.fail "backlog submit refused")
    [ (1, "a1"); (1, "a2"); (2, "b1") ];
  Atomic.set opened true;
  (* shutdown would abort whatever is still queued — drain first *)
  let rec wait_drained n =
    if Scheduler.queued sched = 0 && Scheduler.running sched = 0 then ()
    else if n = 0 then Alcotest.fail "backlog never drained"
    else (Thread.delay 0.01; wait_drained (n - 1))
  in
  wait_drained 500;
  Scheduler.shutdown sched;
  (* round-robin: lane 1 yields one job, then lane 2, then lane 1 again *)
  Alcotest.(check (list string)) "lanes interleave" [ "a1"; "b1"; "a2" ]
    (List.rev !order)

let test_scheduler_busy_and_abort () =
  let sched = Scheduler.create ~workers:1 ~max_queue:1 in
  let opened, block = gate () in
  let ran = ref 0 and aborted = ref 0 in
  let job () =
    { Scheduler.run = (fun () -> incr ran); abort = (fun () -> incr aborted) }
  in
  (match Scheduler.submit sched ~lane:1 { Scheduler.run = block; abort = (fun () -> ()) } with
  | `Accepted -> ()
  | _ -> Alcotest.fail "first submit refused");
  let rec wait_running n =
    if Scheduler.running sched = 1 then ()
    else if n = 0 then Alcotest.fail "worker never started"
    else (Thread.delay 0.01; wait_running (n - 1))
  in
  wait_running 500;
  (match Scheduler.submit sched ~lane:1 (job ()) with
  | `Accepted -> ()
  | _ -> Alcotest.fail "queue slot refused");
  (match Scheduler.submit sched ~lane:2 (job ()) with
  | `Busy (running, queued) ->
      Alcotest.(check int) "running" 1 running;
      Alcotest.(check int) "queued" 1 queued
  | _ -> Alcotest.fail "over-quota submit not refused");
  (* retiring the lane aborts its queued job without running it *)
  Scheduler.retire_lane sched 1;
  Alcotest.(check int) "abort ran" 1 !aborted;
  Alcotest.(check int) "job did not run" 0 !ran;
  Atomic.set opened true;
  Scheduler.shutdown sched;
  (match Scheduler.submit sched ~lane:3 (job ()) with
  | `Shutdown -> ()
  | _ -> Alcotest.fail "post-shutdown submit accepted");
  Alcotest.(check int) "exactly-one contract held" 1 !aborted

let test_scheduler_shutdown_aborts_backlog () =
  let sched = Scheduler.create ~workers:1 ~max_queue:8 in
  let opened, block = gate () in
  let aborted = ref 0 in
  ignore
    (Scheduler.submit sched ~lane:1 { Scheduler.run = block; abort = (fun () -> ()) }
      : [ `Accepted | `Busy of int * int | `Shutdown ]);
  let rec wait_running n =
    if Scheduler.running sched = 1 then ()
    else if n = 0 then Alcotest.fail "worker never started"
    else (Thread.delay 0.01; wait_running (n - 1))
  in
  wait_running 500;
  for i = 1 to 4 do
    ignore
      (Scheduler.submit sched ~lane:i
         { Scheduler.run = (fun () -> Alcotest.fail "queued job ran"); abort = (fun () -> incr aborted) }
        : [ `Accepted | `Busy of int * int | `Shutdown ])
  done;
  Atomic.set opened true;
  Scheduler.shutdown sched;
  Alcotest.(check int) "every queued job aborted" 4 !aborted

(* ---------- differential serving ---------- *)

let corpus = [ ("gadget", gadget 3); ("er", er 7 ~n:30 ~m:60) ]

let test_differential_serving () =
  with_server corpus (fun addr _srv ->
      with_client addr (fun c ->
          List.iter
            (fun (name, g) ->
              List.iter
                (fun s ->
                  List.iter
                    (fun alg ->
                      let expected = local_stream alg g ~s in
                      let outcome, got =
                        collect_query c
                          (query ~engine:(P.Alg alg) ~graph:name ~s ())
                      in
                      let d = finished_done outcome in
                      (match d.P.d_outcome with
                      | Budget.Complete -> ()
                      | Budget.Truncated _ ->
                          Alcotest.fail "unbudgeted query truncated");
                      Alcotest.(check int)
                        "emitted count matches stream" (List.length got)
                        d.P.d_emitted;
                      Alcotest.(check (list string))
                        (Printf.sprintf "%s s=%d %s bit-identical" name s
                           (E.name alg))
                        expected got)
                    [ E.Poly_delay; E.Cs1; E.Cs2_pf ])
                [ 1; 2; 3 ])
            corpus))

let test_differential_par_engine () =
  with_server corpus (fun addr _srv ->
      with_client addr (fun c ->
          List.iter
            (fun (name, g) ->
              let expected =
                List.map Stream.encode_set (E.sorted_results E.Cs2_pf g ~s:2)
                |> List.sort String.compare
              in
              let outcome, got = collect_query c (query ~engine:P.Par ~graph:name ~s:2 ()) in
              ignore (finished_done outcome : P.done_info);
              Alcotest.(check (list string))
                (name ^ " par matches sequential") expected
                (List.sort String.compare got))
            corpus))

let test_differential_min_size () =
  with_server corpus (fun addr _srv ->
      with_client addr (fun c ->
          let g = List.assoc "gadget" corpus in
          let expected = local_stream ~min_size:5 E.Cs2_pf g ~s:2 in
          let outcome, got =
            collect_query c (query ~min_size:5 ~graph:"gadget" ~s:2 ())
          in
          ignore (finished_done outcome : P.done_info);
          Alcotest.(check (list string)) "min-size respected" expected got))

let test_truncate_and_resume ~engine ~graph_name =
  with_server corpus (fun addr _srv ->
      with_client addr (fun c ->
          let g = List.assoc graph_name corpus in
          let full =
            match engine with
            | P.Alg alg -> local_stream alg g ~s:2
            | P.Par -> Alcotest.fail "use a sequential engine here"
          in
          let outcome1, part1 =
            collect_query c (query ~engine ~max_results:4 ~graph:graph_name ~s:2 ())
          in
          let d1 = finished_done outcome1 in
          (match d1.P.d_outcome with
          | Budget.Truncated Budget.Max_results -> ()
          | _ -> Alcotest.fail "expected a max-results truncation");
          let resume =
            match d1.P.d_resume with
            | Some st -> st
            | None -> Alcotest.fail "truncated Done carried no resume token"
          in
          let outcome2, part2 =
            collect_query c (query ~engine ~resume ~graph:graph_name ~s:2 ())
          in
          let d2 = finished_done outcome2 in
          (match d2.P.d_outcome with
          | Budget.Complete -> ()
          | Budget.Truncated _ -> Alcotest.fail "resumed query truncated");
          Alcotest.(check (list string))
            "prefix + resumed tail = uninterrupted stream, byte for byte" full
            (part1 @ part2)))

let test_resume_roots () = test_truncate_and_resume ~engine:(P.Alg E.Cs2_pf) ~graph_name:"gadget"
let test_resume_pd () = test_truncate_and_resume ~engine:(P.Alg E.Poly_delay) ~graph_name:"gadget"

let test_deadline_zero_resumes () =
  with_server corpus (fun addr _srv ->
      with_client addr (fun c ->
          let g = List.assoc "gadget" corpus in
          let full = local_stream E.Cs2_pf g ~s:2 in
          let outcome1, part1 =
            collect_query c (query ~deadline:0. ~graph:"gadget" ~s:2 ())
          in
          let d1 = finished_done outcome1 in
          (match d1.P.d_outcome with
          | Budget.Truncated Budget.Deadline -> ()
          | _ -> Alcotest.fail "deadline 0 did not truncate");
          let resume =
            match d1.P.d_resume with
            | Some st -> st
            | None -> Alcotest.fail "no resume token"
          in
          let outcome2, part2 =
            collect_query c (query ~resume ~graph:"gadget" ~s:2 ())
          in
          ignore (finished_done outcome2 : P.done_info);
          Alcotest.(check (list string)) "nothing lost to the dead deadline"
            full (part1 @ part2)))

let test_concurrent_clients () =
  (* 4 clients, each its own connection and shuffled query plan; every
     stream must match the sequential reference exactly *)
  let plans =
    [
      [ ("gadget", 2, E.Cs2_pf); ("er", 1, E.Poly_delay); ("gadget", 3, E.Cs1) ];
      [ ("er", 2, E.Cs2_pf); ("gadget", 1, E.Cs1); ("er", 3, E.Poly_delay) ];
      [ ("gadget", 3, E.Cs2_pf); ("er", 2, E.Cs1); ("gadget", 2, E.Poly_delay) ];
      [ ("er", 3, E.Cs2_pf); ("gadget", 2, E.Cs1); ("er", 1, E.Cs2_pf) ];
    ]
  in
  let expected (name, s, alg) = local_stream alg (List.assoc name corpus) ~s in
  with_server ~workers:3 corpus (fun addr _srv ->
      let failures_lock = Mutex.create () in
      let failures = ref [] in
      let client_thread plan () =
        match
          with_client addr (fun c ->
              List.iteri
                (fun i ((name, s, alg) as case) ->
                  let outcome, got =
                    collect_query c
                      (query ~id:(i + 1) ~engine:(P.Alg alg) ~graph:name ~s ())
                  in
                  (match outcome with
                  | Client.Finished _ -> ()
                  | _ -> failwith (name ^ ": not finished"));
                  if not (List.equal String.equal (expected case) got) then
                    failwith (Printf.sprintf "%s s=%d %s: stream mismatch" name s (E.name alg)))
                plan)
        with
        | () -> ()
        | exception e ->
            Scoll.Sync.with_lock failures_lock (fun () ->
                failures := Printexc.to_string e :: !failures)
      in
      let threads = List.map (fun plan -> Thread.create (client_thread plan) ()) plans in
      List.iter Thread.join threads;
      match !failures with
      | [] -> ()
      | fs -> Alcotest.fail (String.concat "; " fs))

let test_bad_requests_typed () =
  with_server corpus (fun addr srv ->
      with_client addr (fun c ->
          let expect_bad q msg_part =
            match Client.run_query c q with
            | Client.Failed { code = P.Bad_request; msg } ->
                if not (Astring_contains.contains msg msg_part) then
                  Alcotest.failf "refusal %S does not mention %S" msg msg_part
            | _ -> Alcotest.failf "expected a Bad_request (%s)" msg_part
          in
          expect_bad (query ~graph:"nosuch" ~s:2 ()) "unknown graph";
          expect_bad (query ~graph:"gadget" ~s:0 ()) "s must be";
          expect_bad
            (query ~engine:(P.Alg E.Poly_delay)
               ~resume:(Ckpt.Roots { retired = [] }) ~graph:"gadget" ~s:2 ())
            "resume token";
          (* the daemon is not wedged and nothing leaked *)
          Alcotest.(check bool) "still answers" true (Client.ping c);
          wait_idle srv))

(* ---------- fault drill ---------- *)

let drill_corpus = [ ("gadget", gadget 3); ("slow", gadget 16) ]

let expect_session_death = function
  | Client.Disconnected -> ()
  | Client.Finished _ -> Alcotest.fail "query finished through a dead socket"
  | Client.Refused _ -> Alcotest.fail "unexpected Busy"
  | Client.Throttled _ -> Alcotest.fail "unexpected Retry_after"
  | Client.Failed { msg; _ } -> Alcotest.failf "typed failure instead of death: %s" msg

let check_ledger srv ~graph ~s =
  match Server.store srv ~graph ~s with
  | None -> ()
  | Some store ->
      Alcotest.(check int)
        "shared-cache weight ledger is exact after the drill"
        (Neighborhood.Shared.recount_bytes store)
        (Neighborhood.Shared.bytes store)

let test_injected_write_fault () =
  let fault = Fault.create () in
  with_server ~fault drill_corpus (fun addr srv ->
      Fault.arm_nth fault ~site:"daemon.write" ~n:3;
      (match
         with_client addr (fun c ->
             collect_query c (query ~graph:"gadget" ~s:2 ()))
       with
      | outcome, got ->
          expect_session_death outcome;
          Alcotest.(check int) "two frames made it out" 2 (List.length got)
      | exception P.Error (P.Truncated _) ->
          (* the kill can tear the in-flight frame *)
          ());
      Fault.disarm fault ~site:"daemon.write";
      wait_idle srv;
      (* the daemon took one injected write failure and kept serving:
         a fresh connection gets the full, bit-identical answer *)
      with_client addr (fun c ->
          let g = List.assoc "gadget" drill_corpus in
          let outcome, got = collect_query c (query ~graph:"gadget" ~s:2 ()) in
          ignore (finished_done outcome : P.done_info);
          Alcotest.(check (list string)) "post-fault stream intact"
            (local_stream E.Cs2_pf g ~s:2) got);
      check_ledger srv ~graph:"gadget" ~s:2)

let test_injected_flush_fault () =
  let fault = Fault.create () in
  with_server ~fault drill_corpus (fun addr srv ->
      Fault.arm_nth fault ~site:"daemon.flush" ~n:2;
      (match
         with_client addr (fun c ->
             collect_query c (query ~graph:"gadget" ~s:2 ()))
       with
      | outcome, _ -> expect_session_death outcome
      | exception P.Error (P.Truncated _) -> ());
      Fault.disarm fault ~site:"daemon.flush";
      wait_idle srv;
      with_client addr (fun c ->
          Alcotest.(check bool) "daemon alive after flush fault" true (Client.ping c));
      check_ledger srv ~graph:"gadget" ~s:2)

let test_injected_accept_fault () =
  let fault = Fault.create () in
  with_server ~fault drill_corpus (fun addr _srv ->
      Fault.arm_nth fault ~site:"daemon.accept" ~n:1;
      (match with_client addr (fun c -> Client.ping c) with
      | _ -> Alcotest.fail "connection through an injected accept failure"
      | exception P.Error _ -> ()
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | exception Unix.Unix_error _ -> ());
      (* only that one connection was refused *)
      with_client addr (fun c ->
          Alcotest.(check bool) "next connection accepted" true (Client.ping c)))

let test_client_disconnect_mid_stream () =
  with_server ~workers:2 drill_corpus (fun addr srv ->
      let g = List.assoc "gadget" drill_corpus in
      let expected = local_stream E.Cs2_pf g ~s:2 in
      (* sibling B streams the small graph, repeatedly, while A dies *)
      let b_failures = ref [] in
      let b_thread () =
        match
          with_client addr (fun c ->
              for i = 1 to 3 do
                let outcome, got =
                  collect_query c (query ~id:i ~graph:"gadget" ~s:2 ())
                in
                ignore (finished_done outcome : P.done_info);
                if not (List.equal String.equal expected got) then
                  failwith "sibling stream corrupted"
              done)
        with
        | () -> ()
        | exception e -> b_failures := Printexc.to_string e :: !b_failures
      in
      let b = Thread.create b_thread () in
      (* A: ask for the huge stream, read two frames, vanish *)
      let a = Client.connect addr in
      Client.send_request a (P.Query (query ~graph:"slow" ~s:2 ()));
      (match (Client.read_response a, Client.read_response a) with
      | Some (P.Result _), Some (P.Result _) -> ()
      | _ -> Alcotest.fail "slow query did not start streaming");
      Client.close a;
      Thread.join b;
      (match !b_failures with
      | [] -> ()
      | fs -> Alcotest.fail (String.concat "; " fs));
      (* the dead session's budget is cancelled, its worker freed, and
         nothing in the shared cache accounting leaked *)
      wait_idle srv;
      check_ledger srv ~graph:"slow" ~s:2;
      check_ledger srv ~graph:"gadget" ~s:2;
      with_client addr (fun c ->
          Alcotest.(check bool) "daemon alive after disconnect" true (Client.ping c)))

let test_cancel_over_wire () =
  with_server drill_corpus (fun addr srv ->
      with_client addr (fun c ->
          Client.send_request c (P.Query (query ~id:7 ~graph:"slow" ~s:2 ()));
          (match Client.read_response c with
          | Some (P.Result (7, _)) -> ()
          | _ -> Alcotest.fail "no first result");
          Client.cancel c 7;
          (* drain to the terminal frame: a cancelled Done with a token *)
          let rec drain n =
            match Client.read_response c with
            | Some (P.Result (7, _)) -> drain (n + 1)
            | Some (P.Done d) -> (n, d)
            | _ -> Alcotest.fail "stream ended without Done"
          in
          let _, d = drain 1 in
          (match d.P.d_outcome with
          | Budget.Truncated Budget.Cancelled -> ()
          | Budget.Complete -> Alcotest.fail "cancel lost the race to a tiny graph"
          | Budget.Truncated _ -> Alcotest.fail "wrong truncation reason");
          (match d.P.d_resume with
          | Some (Ckpt.Roots _) -> ()
          | _ -> Alcotest.fail "cancelled Done carried no roots token");
          Alcotest.(check bool) "same connection still serves" true (Client.ping c));
      wait_idle srv)

let test_busy_admission () =
  with_server ~workers:1 ~max_queue:0 drill_corpus (fun addr _srv ->
      let a = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close a)
        (fun () ->
          Client.send_request a (P.Query (query ~id:1 ~graph:"slow" ~s:2 ()));
          (match Client.read_response a with
          | Some (P.Result _) -> ()
          | _ -> Alcotest.fail "occupying query did not start");
          (* the worker is provably busy: a second connection is refused *)
          with_client addr (fun b ->
              match Client.run_query b (query ~id:2 ~graph:"gadget" ~s:2 ()) with
              | Client.Refused { running; queued } ->
                  Alcotest.(check int) "running" 1 running;
                  Alcotest.(check int) "queued" 0 queued
              | _ -> Alcotest.fail "admission did not refuse");
          Client.cancel a 1))

(* ---------- live mutation: quotas, epochs, durability ---------- *)

module Quota = Scliques_daemon.Quota
module Diff = Sgraph.Diff
module Overlay = Sgraph.Overlay

let churn_before = er 7 ~n:30 ~m:60
let churn_after = er 8 ~n:30 ~m:60
let churn_edits = Diff.between churn_before churn_after

let script_of g edits =
  Diff.to_string ~base_n:(Sgraph.Graph.n g) ~base_m:(Sgraph.Graph.m g) edits

let churn_script = script_of churn_before churn_edits

(* what the daemon serves after the mutation must equal the offline
   strict replay of the same script *)
let churn_applied = Diff.apply churn_before churn_edits

let check_pins srv ~graph =
  match Server.pinned srv ~graph with
  | Some n -> Alcotest.(check int) (graph ^ ": epoch pins released") 0 n
  | None -> Alcotest.failf "unknown graph %s" graph

(* (epoch, edits, n, m) of a successful ack *)
let applied_ack = function
  | Client.Applied { epoch; edits; n; m } -> (epoch, edits, n, m)
  | Client.Mutate_throttled _ -> Alcotest.fail "mutation throttled"
  | Client.Mutate_failed { msg; _ } -> Alcotest.fail ("mutation failed: " ^ msg)
  | Client.Mutate_disconnected -> Alcotest.fail "daemon hung up mid-mutation"

let test_quota_buckets () =
  let approx = Alcotest.float 1e-9 in
  let c =
    {
      Quota.queries_per_sec = 1.;
      query_burst = 2;
      mutate_bytes_per_sec = 100.;
      mutate_burst = 200;
    }
  in
  (match Quota.config_ok c with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Quota.config_ok { c with query_burst = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero burst accepted");
  (match Quota.config_ok { c with queries_per_sec = Float.nan } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nan rate accepted");
  let t = Quota.create c ~now:0. in
  (* the bucket starts full: burst admissions, then an honest wait *)
  (match Quota.admit_query t ~now:0. with Ok () -> () | Error _ -> Alcotest.fail "1st");
  (match Quota.admit_query t ~now:0. with Ok () -> () | Error _ -> Alcotest.fail "2nd");
  (match Quota.admit_query t ~now:0. with
  | Error wait -> Alcotest.check approx "wait = 1 token / 1 qps" 1.0 wait
  | Ok () -> Alcotest.fail "over-burst admitted");
  (* refusals are free and refunds restore a token *)
  Quota.refund_query t;
  (match Quota.admit_query t ~now:0. with Ok () -> () | Error _ -> Alcotest.fail "refund lost");
  (* refill honours elapsed time, capped at the burst *)
  (match Quota.admit_query t ~now:100. with Ok () -> () | Error _ -> Alcotest.fail "refill");
  (match Quota.admit_query t ~now:100. with Ok () -> () | Error _ -> Alcotest.fail "cap=2");
  (match Quota.admit_query t ~now:100. with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "refill exceeded the burst ceiling");
  (* mutation bytes: partial drain, honest wait, over-burst refused with
     the wait for a full bucket *)
  (match Quota.admit_mutation t ~now:0. ~bytes:150 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "150 bytes within burst");
  (match Quota.admit_mutation t ~now:0. ~bytes:100 with
  | Error wait -> Alcotest.check approx "wait = missing 50 bytes / 100 Bps" 0.5 wait
  | Ok () -> Alcotest.fail "overdraft admitted");
  (match Quota.admit_mutation t ~now:0. ~bytes:300 with
  | Error wait -> Alcotest.check approx "over-burst waits for a full bucket" 1.5 wait
  | Ok () -> Alcotest.fail "bigger than the bucket admitted");
  (* refunds cap at the burst *)
  Quota.refund_mutation t ~bytes:10_000;
  (match Quota.admit_mutation t ~now:0. ~bytes:200 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "capped refund lost");
  (* time going backwards neither charges nor refills *)
  (match Quota.admit_query t ~now:(-50.) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "time travel minted tokens")

let test_quota_over_wire () =
  let quota =
    {
      Quota.queries_per_sec = 0.001;
      query_burst = 1;
      mutate_bytes_per_sec = 1.;
      mutate_burst = 40 (* smaller than any SGRDIFF1 header + record *);
    }
  in
  with_server ~quota [ ("gadget", gadget 3); ("churn", churn_before) ]
    (fun addr srv ->
      with_client addr (fun a ->
          let outcome, _ = collect_query a (query ~id:1 ~graph:"gadget" ~s:2 ()) in
          ignore (finished_done outcome : P.done_info);
          (* the one burst token is spent; the refusal is typed and the
             advertised wait honest (rate 0.001/s => ~1000 s) *)
          (match Client.run_query a (query ~id:2 ~graph:"gadget" ~s:2 ()) with
          | Client.Throttled wait ->
              Alcotest.(check bool) "honest wait" true (wait > 100.)
          | _ -> Alcotest.fail "second query not throttled");
          (match Client.mutate a ~id:3 ~graph:"churn" ~script:churn_script with
          | Client.Mutate_throttled _ -> ()
          | _ -> Alcotest.fail "mutation bytes not throttled");
          (* a throttled sibling does not starve others: B has its own
             buckets and full throughput *)
          with_client addr (fun b ->
              let outcome, _ =
                collect_query b (query ~id:1 ~graph:"gadget" ~s:2 ())
              in
              ignore (finished_done outcome : P.done_info));
          (* refusals admitted nothing: no pins, no epoch movement *)
          wait_idle srv;
          check_pins srv ~graph:"gadget";
          check_pins srv ~graph:"churn";
          Alcotest.(check (option int)) "no mutation landed" (Some 0)
            (Server.graph_epoch srv ~graph:"churn")))

let test_quota_reconnect () =
  (* the redial loophole, pinned shut: a throttled client that drops its
     connection and dials again must resume the same drained bucket —
     identity is the Hello token, not the connection. A different token
     stays a different client with its own full bucket. *)
  let quota =
    {
      Quota.queries_per_sec = 0.001;
      query_burst = 1;
      mutate_bytes_per_sec = 1.;
      mutate_burst = 40;
    }
  in
  with_server ~quota [ ("gadget", gadget 3) ] (fun addr srv ->
      with_client addr (fun a ->
          Client.hello a ~token:"alice";
          let outcome, _ =
            collect_query a (query ~id:1 ~graph:"gadget" ~s:2 ())
          in
          ignore (finished_done outcome : P.done_info);
          (* the one burst token is spent *)
          match Client.run_query a (query ~id:2 ~graph:"gadget" ~s:2 ()) with
          | Client.Throttled _ -> ()
          | _ -> Alcotest.fail "second query not throttled");
      (* reconnect announcing the same token: still the drained bucket *)
      with_client addr (fun a2 ->
          Client.hello a2 ~token:"alice";
          match Client.run_query a2 (query ~id:3 ~graph:"gadget" ~s:2 ()) with
          | Client.Throttled wait ->
              Alcotest.(check bool) "drained bucket survives the redial" true
                (wait > 100.)
          | _ -> Alcotest.fail "redial minted a fresh bucket");
      (* a different token is a different client *)
      with_client addr (fun b ->
          Client.hello b ~token:"bob";
          let outcome, _ =
            collect_query b (query ~id:4 ~graph:"gadget" ~s:2 ())
          in
          ignore (finished_done outcome : P.done_info));
      (* and so is an anonymous unix-socket sibling (private bucket) *)
      with_client addr (fun c ->
          let outcome, _ =
            collect_query c (query ~id:5 ~graph:"gadget" ~s:2 ())
          in
          ignore (finished_done outcome : P.done_info));
      wait_idle srv;
      check_pins srv ~graph:"gadget")

let test_serve_mutate_query_differential () =
  (* 4 concurrent clients query the before-graph; one wire mutation
     lands; the clients re-query and every after-stream must equal the
     Enumerate.refresh oracle (canonically sorted on both sides) *)
  let s = 2 in
  let prior = E.sorted_results E.Cs2_pf churn_before ~s in
  let delta =
    E.refresh ~before:churn_before ~after:churn_applied
      ~touched:(Overlay.touched churn_edits) ~s ~prior ()
  in
  let expect_before =
    List.sort String.compare (List.map Stream.encode_set prior)
  in
  let expect_after =
    List.sort String.compare (List.map Stream.encode_set delta.E.results)
  in
  with_server ~workers:3 [ ("churn", churn_before) ] (fun addr srv ->
      let phase expected =
        let failures = ref [] in
        let flock = Mutex.create () in
        let one () =
          match
            with_client addr (fun c ->
                let outcome, got = collect_query c (query ~graph:"churn" ~s ()) in
                ignore (finished_done outcome : P.done_info);
                if
                  not
                    (List.equal String.equal expected
                       (List.sort String.compare got))
                then failwith "stream mismatch")
          with
          | () -> ()
          | exception e ->
              Scoll.Sync.with_lock flock (fun () ->
                  failures := Printexc.to_string e :: !failures)
        in
        let threads = List.init 4 (fun _ -> Thread.create one ()) in
        List.iter Thread.join threads;
        match !failures with
        | [] -> ()
        | fs -> Alcotest.fail (String.concat "; " fs)
      in
      phase expect_before;
      with_client addr (fun m ->
          let epoch, _, n, m' =
            applied_ack (Client.mutate m ~id:9 ~graph:"churn" ~script:churn_script)
          in
          Alcotest.(check int) "epoch = edits applied"
            (List.length churn_edits) epoch;
          Alcotest.(check int) "ack n" (Sgraph.Graph.n churn_applied) n;
          Alcotest.(check int) "ack m" (Sgraph.Graph.m churn_applied) m');
      phase expect_after;
      wait_idle srv;
      check_pins srv ~graph:"churn";
      Alcotest.(check (option int)) "serving epoch"
        (Some (List.length churn_edits))
        (Server.graph_epoch srv ~graph:"churn"))

let test_epoch_pinning () =
  (* one worker: A occupies it with the huge gadget stream; B's query is
     admitted (and epoch-pinned) BEFORE B's mutation on the same
     connection — strict per-session ordering — so when the worker
     frees, B's query must answer the PRE-mutation graph, bit for bit,
     even though the mutation was acked long before it ran *)
  let before_stream = local_stream E.Cs2_pf churn_before ~s:2 in
  let after_stream = local_stream E.Cs2_pf churn_applied ~s:2 in
  with_server ~workers:1
    [ ("slow", gadget 16); ("churn", churn_before) ]
    (fun addr srv ->
      let a = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close a)
        (fun () ->
          Client.send_request a (P.Query (query ~id:1 ~graph:"slow" ~s:2 ()));
          (match Client.read_response a with
          | Some (P.Result (1, _)) -> ()
          | _ -> Alcotest.fail "occupying query did not start");
          with_client addr (fun b ->
              Client.send_request b (P.Query (query ~id:2 ~graph:"churn" ~s:2 ()));
              Client.send_request b
                (P.Mutate { P.m_id = 3; m_graph = "churn"; m_script = churn_script });
              (* the mutation acks while query 2 still waits for the worker *)
              (match Client.read_response b with
              | Some (P.Mutated { mu_id = 3; mu_epoch; _ }) ->
                  Alcotest.(check int) "mutation epoch"
                    (List.length churn_edits) mu_epoch
              | _ -> Alcotest.fail "expected the Mutated ack first");
              Alcotest.(check (option int)) "tip already advanced"
                (Some (List.length churn_edits))
                (Server.graph_epoch srv ~graph:"churn");
              (* free the worker *)
              Client.cancel a 1;
              let rec drain_a () =
                match Client.read_response a with
                | Some (P.Done _) -> ()
                | Some _ -> drain_a ()
                | None -> Alcotest.fail "A hung up unexpectedly"
              in
              drain_a ();
              let rec collect acc =
                match Client.read_response b with
                | Some (P.Result (2, set)) -> collect (set :: acc)
                | Some (P.Done { P.d_id = 2; d_outcome = Budget.Complete; _ }) ->
                    List.rev acc
                | Some (P.Done _) -> Alcotest.fail "pinned query truncated"
                | _ -> Alcotest.fail "unexpected frame on B"
              in
              let got = collect [] in
              Alcotest.(check (list string))
                "query admitted pre-mutation answers the pre-mutation epoch"
                before_stream got;
              (* and a fresh query sees the successor epoch *)
              let outcome, got' =
                collect_query b (query ~id:4 ~graph:"churn" ~s:2 ())
              in
              ignore (finished_done outcome : P.done_info);
              Alcotest.(check (list string)) "post-mutation stream"
                after_stream got');
          wait_idle srv;
          check_pins srv ~graph:"churn";
          check_pins srv ~graph:"slow"))

let test_mutate_bad_scripts () =
  with_server [ ("churn", churn_before) ] (fun addr srv ->
      with_client addr (fun c ->
          let expect_bad id script msg_part =
            match Client.mutate c ~id ~graph:"churn" ~script with
            | Client.Mutate_failed { code = P.Bad_request; msg } ->
                if not (Astring_contains.contains msg msg_part) then
                  Alcotest.failf "refusal %S does not mention %S" msg msg_part
            | _ -> Alcotest.failf "expected a Bad_request (%s)" msg_part
          in
          (* every strict-prefix truncation of a valid script is refused
             with the Diff decoder's own typed diagnostic *)
          List.iter
            (fun k ->
              expect_bad 1
                (String.sub churn_script 0 k)
                "bad edit script")
            [ 0; 4; 27; String.length churn_script - 1 ];
          (* CRC flip inside an edit record *)
          (let b = Bytes.of_string churn_script in
           Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 0x40));
           expect_bad 2 (Bytes.to_string b) "bad edit script");
          (* header naming the wrong base *)
          expect_bad 3
            (Diff.to_string
               ~base_n:(Sgraph.Graph.n churn_before + 5)
               ~base_m:(Sgraph.Graph.m churn_before)
               churn_edits)
            "base mismatch";
          (* an ineffective edit refuses atomically: find an edge that
             exists (the source of some Delete) and try to insert it *)
          (match
             List.find_opt
               (fun e -> match e with Overlay.Delete _ -> true | _ -> false)
               churn_edits
           with
          | Some (Overlay.Delete (u, v)) ->
              expect_bad 4
                (script_of churn_before [ Overlay.Insert (u, v) ])
                "ineffective"
          | _ -> Alcotest.fail "churn has no deletes to reuse");
          Alcotest.(check (option int)) "nothing applied" (Some 0)
            (Server.graph_epoch srv ~graph:"churn");
          (* the rollback left the tip pristine: the real script applies
             and serves the exact offline replay *)
          ignore
            (applied_ack (Client.mutate c ~id:5 ~graph:"churn" ~script:churn_script)
              : int * int * int * int);
          let outcome, got = collect_query c (query ~id:6 ~graph:"churn" ~s:2 ()) in
          ignore (finished_done outcome : P.done_info);
          Alcotest.(check (list string)) "post-rollback stream"
            (local_stream E.Cs2_pf churn_applied ~s:2)
            got);
      wait_idle srv;
      check_pins srv ~graph:"churn")

let test_journal_replay () =
  with_state_dir (fun dir ->
      (* session 1: mutate, observe, stop *)
      with_server ~state_dir:dir [ ("churn", churn_before) ] (fun addr _srv ->
          with_client addr (fun c ->
              ignore
                (applied_ack
                   (Client.mutate c ~id:1 ~graph:"churn" ~script:churn_script)
                  : int * int * int * int)));
      (* session 2: the state dir wins over the (stale) provided graph;
         replay reproduces the exact epoch and byte-identical answers *)
      with_server ~state_dir:dir [ ("churn", churn_before) ] (fun addr srv ->
          Alcotest.(check (option int)) "epoch survives restart"
            (Some (List.length churn_edits))
            (Server.graph_epoch srv ~graph:"churn");
          with_client addr (fun c ->
              let outcome, got = collect_query c (query ~graph:"churn" ~s:2 ()) in
              ignore (finished_done outcome : P.done_info);
              Alcotest.(check (list string)) "replayed stream"
                (local_stream E.Cs2_pf churn_applied ~s:2)
                got));
      (* a torn journal tail is refused at startup, like any SGRDIFF1 *)
      let journal = Filename.concat dir "churn.journal.0" in
      let len = (Unix.stat journal).Unix.st_size in
      let fd = Unix.openfile journal [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 1);
      Unix.close fd;
      match with_server ~state_dir:dir [ ("churn", churn_before) ] (fun _ _ -> ()) with
      | () -> Alcotest.fail "torn journal accepted"
      | exception Sgraph.Io_error.Parse_error _ -> ())

let mutate_fault_drill site =
  with_state_dir (fun dir ->
      let fault = Fault.create () in
      with_server ~state_dir:dir ~fault [ ("churn", churn_before) ]
        (fun addr srv ->
          Fault.arm_nth fault ~site ~n:1;
          with_client addr (fun c ->
              (* the fault fires between accepting the edits and acking:
                 the journal is truncated back, the tip rolled back, and
                 the client told the truth *)
              (match Client.mutate c ~id:1 ~graph:"churn" ~script:churn_script with
              | Client.Mutate_failed { code = P.Server_error; msg } ->
                  if not (Astring_contains.contains msg "journal") then
                    Alcotest.failf "unexpected diagnostic %S" msg
              | _ -> Alcotest.failf "expected a Server_error from %s" site);
              Alcotest.(check (option int)) "epoch unchanged" (Some 0)
                (Server.graph_epoch srv ~graph:"churn");
              let outcome, got = collect_query c (query ~id:2 ~graph:"churn" ~s:2 ()) in
              ignore (finished_done outcome : P.done_info);
              Alcotest.(check (list string)) "still serving the before-graph"
                (local_stream E.Cs2_pf churn_before ~s:2)
                got;
              (* disarmed, the same session applies the same script *)
              Fault.disarm fault ~site;
              ignore
                (applied_ack
                   (Client.mutate c ~id:3 ~graph:"churn" ~script:churn_script)
                  : int * int * int * int));
          wait_idle srv;
          check_pins srv ~graph:"churn");
      (* the journal holds exactly the acked history: a restart replays
         to the acked epoch, not the faulted one *)
      with_server ~state_dir:dir [ ("churn", churn_before) ] (fun _addr srv ->
          Alcotest.(check (option int)) "well-defined epoch after the crash"
            (Some (List.length churn_edits))
            (Server.graph_epoch srv ~graph:"churn")))

let test_mutate_journal_fault () = mutate_fault_drill "daemon.mutate.journal"
let test_mutate_flush_fault () = mutate_fault_drill "daemon.mutate.flush"

(* Power-loss drill for the generation flip: a fault at every durable
   site inside persist_rebase — the new base snapshot's, then the
   manifest's — during a forced rebase. Whatever the fault left, with
   any never-fsynced temp file torn as a power loss may tear it, a
   restart lands on the pre- or post-rebase generation and serves
   exactly the acked graph; a mutation acked after the fault is
   journaled into whichever generation is live. *)
let churn_third = er 9 ~n:30 ~m:60
let third_script = script_of churn_after (Diff.between churn_after churn_third)

let manifest_gen dir =
  let ic = open_in_bin (Filename.concat dir "churn.manifest") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Scanf.sscanf (input_line ic) "SGRMANI1 %d %d" (fun gen _ -> gen))

let tear_temp_files dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then begin
        let path = Filename.concat dir f in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.ftruncate fd ((Unix.stat path).Unix.st_size / 2))
      end)
    (Sys.readdir dir)

let test_rebase_fault_sites () =
  let epoch =
    List.length churn_edits + List.length (Diff.between churn_after churn_third)
  in
  List.iter
    (fun (site, post) ->
      with_state_dir (fun dir ->
          let fault = Fault.create () in
          with_server ~state_dir:dir ~fault [ ("churn", churn_before) ]
            (fun addr _srv ->
              with_client addr (fun c ->
                  ignore
                    (applied_ack
                       (Client.mutate c ~id:1 ~graph:"churn" ~script:churn_script)
                      : int * int * int * int);
                  (* armed after start-up, so the site's first hit is the
                     rebase's; with no source, Reload is a forced rebase *)
                  Fault.arm_nth fault ~site ~n:1;
                  (match Client.reload c ~id:2 ~graph:"churn" with
                  | Client.Swapped _ | Client.Reload_failed _ -> ()
                  | Client.Reload_disconnected -> Alcotest.failf "%s: daemon hung up" site);
                  Alcotest.(check int) (site ^ ": fault fired") 1 (Fault.hits fault site);
                  ignore
                    (applied_ack (Client.mutate c ~id:3 ~graph:"churn" ~script:third_script)
                      : int * int * int * int)));
          tear_temp_files dir;
          Alcotest.(check int)
            (site ^ ": generation the manifest names")
            (if post then 1 else 0)
            (manifest_gen dir);
          with_server ~state_dir:dir [ ("churn", churn_before) ] (fun addr srv ->
              Alcotest.(check (option int)) (site ^ ": acked epoch") (Some epoch)
                (Server.graph_epoch srv ~graph:"churn");
              with_client addr (fun c ->
                  let outcome, got = collect_query c (query ~graph:"churn" ~s:2 ()) in
                  ignore (finished_done outcome : P.done_info);
                  Alcotest.(check (list string)) (site ^ ": served graph")
                    (local_stream E.Cs2_pf churn_third ~s:2)
                    got))))
    [
      ("snapshot.write", false);
      ("snapshot.fsync", false);
      ("snapshot.rename", false);
      ("snapshot.dirsync", false);
      ("manifest.write", false);
      ("manifest.fsync", false);
      ("manifest.rename", false);
      ("manifest.dirsync", true);
    ]

let test_reload () =
  let fault = Fault.create () in
  let sources = [ ("churn", fun () -> churn_after) ] in
  with_server ~fault ~sources [ ("churn", churn_before) ] (fun addr srv ->
      with_client addr (fun c ->
          (* an injected reload fault leaves the graph exactly as it was *)
          Fault.arm_nth fault ~site:"daemon.reload" ~n:1;
          (match Client.reload c ~id:1 ~graph:"churn" with
          | Client.Reload_failed { code = P.Server_error; msg } ->
              if not (Astring_contains.contains msg "injected") then
                Alcotest.failf "unexpected diagnostic %S" msg
          | _ -> Alcotest.fail "expected the injected reload to fail");
          let outcome, got = collect_query c (query ~id:2 ~graph:"churn" ~s:2 ()) in
          ignore (finished_done outcome : P.done_info);
          Alcotest.(check (list string)) "unchanged after failed reload"
            (local_stream E.Cs2_pf churn_before ~s:2)
            got;
          Fault.disarm fault ~site:"daemon.reload";
          (* the real reload swaps to the source's graph at epoch 0,
             without dropping this session *)
          (match Client.reload c ~id:3 ~graph:"churn" with
          | Client.Swapped { epoch; n; m } ->
              Alcotest.(check int) "fresh epoch" 0 epoch;
              Alcotest.(check int) "n" (Sgraph.Graph.n churn_after) n;
              Alcotest.(check int) "m" (Sgraph.Graph.m churn_after) m
          | _ -> Alcotest.fail "reload failed");
          let outcome, got = collect_query c (query ~id:4 ~graph:"churn" ~s:2 ()) in
          ignore (finished_done outcome : P.done_info);
          Alcotest.(check (list string)) "serving the reloaded graph"
            (local_stream E.Cs2_pf churn_after ~s:2)
            got;
          (match Client.reload c ~id:5 ~graph:"nosuch" with
          | Client.Reload_failed { msg; _ } ->
              if not (Astring_contains.contains msg "unknown graph") then
                Alcotest.failf "unexpected diagnostic %S" msg
          | _ -> Alcotest.fail "unknown graph reloaded"));
      wait_idle srv;
      check_pins srv ~graph:"churn")

(* ---------- the Parallel cancel-bound fix ---------- *)

let counter_value obs name = Counters.value (Obs.counter obs name)

let test_dead_budget_drains_free () =
  (* the regression this PR fixes: a budget that is already dead must
     drain the task queue as pure bookkeeping — zero ball BFS, zero
     visit entries — instead of paying for enumeration it will discard *)
  let g = gadget 8 in
  let obs = Obs.create () in
  let budget = Budget.create ~deadline_s:0. () in
  let report = E.run ~workers:2 ~obs ~budget E.Cs2_p g ~s:2 ignore in
  (match report.E.outcome with
  | Budget.Truncated Budget.Deadline -> ()
  | _ -> Alcotest.fail "dead budget did not trip");
  Alcotest.(check int) "no results" 0 report.E.emitted;
  Alcotest.(check bool) "no roots retired" true
    (report.E.resumable = Some (Ckpt.Roots { retired = [] }));
  Alcotest.(check int) "zero visit entries while draining" 0
    (counter_value obs "cs2.calls");
  Alcotest.(check int) "zero ball BFS while draining" 0
    (counter_value obs "nh.bfs_expansions")

let test_cancel_stops_paying () =
  (* cancel from the streaming sink after the first retired root: with
     poll_every 1 the single worker must stop enumerating almost
     immediately, so both work counters land far below the full run's *)
  let g = gadget 8 in
  let run ~cancel =
    let obs = Obs.create () in
    let budget = Budget.create ~poll_every:1 () in
    let retired_seen = ref 0 in
    let on_root_retired _root _results =
      incr retired_seen;
      if cancel && !retired_seen = 1 then Budget.request_cancel budget
    in
    let outcome, retired =
      Parallel.run ~workers:1 ~obs ~budget g ~s:2 on_root_retired
    in
    ( outcome,
      List.length retired,
      counter_value obs "cs2.calls",
      counter_value obs "nh.bfs_expansions" )
  in
  let full_outcome, full_retired, full_calls, full_bfs = run ~cancel:false in
  (match full_outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "reference run truncated");
  let outcome, retired, calls, bfs = run ~cancel:true in
  (match outcome with
  | Budget.Truncated Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancel did not trip");
  Alcotest.(check bool) "cancel kept almost every root unretired" true
    (retired < full_retired / 4);
  Alcotest.(check bool)
    (Printf.sprintf "visit entries bounded (%d vs full %d)" calls full_calls)
    true
    (calls < full_calls / 4);
  Alcotest.(check bool)
    (Printf.sprintf "ball BFS bounded (%d vs full %d)" bfs full_bfs)
    true
    (bfs < full_bfs / 4)

let test_skip_roots_drain_is_free () =
  (* resuming with every root already retired: the whole queue is skipped
     work, and skipping must not BFS the root balls either *)
  let g = gadget 6 in
  let outcome, all_retired =
    Parallel.run ~workers:1 ~budget:(Budget.create ()) g ~s:2 (fun _ _ -> ())
  in
  (match outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "setup run truncated");
  let obs = Obs.create () in
  let emitted = ref 0 in
  let outcome, retired =
    Parallel.run ~workers:1 ~obs ~budget:(Budget.create ())
      ~roots:
        (List.filter
           (fun v -> not (List.mem v all_retired))
           (List.init (Sgraph.Graph.n g) Fun.id))
      g ~s:2
      (fun _ rs -> emitted := !emitted + List.length rs)
  in
  (match outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "skip-all run truncated");
  Alcotest.(check int) "nothing re-emitted" 0 !emitted;
  Alcotest.(check int) "nothing newly retired" 0 (List.length retired);
  Alcotest.(check int) "skipped roots cost zero visits" 0
    (counter_value obs "cs2.calls")

(* ---------- registration ---------- *)

let suites =
  [
    ( "daemon",
      [
        prop_request_round_trip;
        prop_response_round_trip;
        prop_truncation_total;
        prop_flips_typed;
        prop_payload_crc_flip;
        prop_decoders_total_on_junk;
        prop_trailing_garbage_refused;
        Alcotest.test_case "oversized frames refused" `Quick test_oversized_refused;
        Alcotest.test_case "input_frame EOF semantics" `Quick test_input_frame_eof;
        Alcotest.test_case "bad magic refused" `Quick test_bad_magic;
        Alcotest.test_case "scheduler round-robin fairness" `Quick test_scheduler_fairness;
        Alcotest.test_case "scheduler admission and lane retire" `Quick
          test_scheduler_busy_and_abort;
        Alcotest.test_case "scheduler shutdown aborts backlog" `Quick
          test_scheduler_shutdown_aborts_backlog;
        Alcotest.test_case "served streams bit-identical to E.run" `Quick
          test_differential_serving;
        Alcotest.test_case "par engine matches sequential" `Quick
          test_differential_par_engine;
        Alcotest.test_case "min-size travels the wire" `Quick test_differential_min_size;
        Alcotest.test_case "truncate + resume (roots family)" `Quick test_resume_roots;
        Alcotest.test_case "truncate + resume (pd family)" `Quick test_resume_pd;
        Alcotest.test_case "deadline-zero query resumes losslessly" `Quick
          test_deadline_zero_resumes;
        Alcotest.test_case "4 concurrent clients, shuffled plans" `Quick
          test_concurrent_clients;
        Alcotest.test_case "bad requests get typed refusals" `Quick test_bad_requests_typed;
        Alcotest.test_case "injected write fault contained" `Quick test_injected_write_fault;
        Alcotest.test_case "injected flush fault contained" `Quick test_injected_flush_fault;
        Alcotest.test_case "injected accept fault contained" `Quick
          test_injected_accept_fault;
        Alcotest.test_case "mid-stream disconnect leaves siblings intact" `Quick
          test_client_disconnect_mid_stream;
        Alcotest.test_case "cancel over the wire" `Quick test_cancel_over_wire;
        Alcotest.test_case "busy admission is typed" `Quick test_busy_admission;
        Alcotest.test_case "quota buckets (fake clock)" `Quick test_quota_buckets;
        Alcotest.test_case "quota refusals over the wire" `Quick test_quota_over_wire;
        Alcotest.test_case "quota identity survives reconnects" `Quick
          test_quota_reconnect;
        Alcotest.test_case "serve-mutate-query matches Enumerate.refresh" `Quick
          test_serve_mutate_query_differential;
        Alcotest.test_case "in-flight queries keep their admission epoch" `Quick
          test_epoch_pinning;
        Alcotest.test_case "bad edit scripts refused atomically" `Quick
          test_mutate_bad_scripts;
        Alcotest.test_case "journal replay survives restart" `Quick test_journal_replay;
        Alcotest.test_case "journal-write fault leaves acked epoch" `Quick
          test_mutate_journal_fault;
        Alcotest.test_case "journal-flush fault leaves acked epoch" `Quick
          test_mutate_flush_fault;
        Alcotest.test_case "rebase faults restart on the old or new generation" `Quick
          test_rebase_fault_sites;
        Alcotest.test_case "hot reload swaps epochs without dropping sessions" `Quick
          test_reload;
        Alcotest.test_case "dead budget drains for free" `Quick test_dead_budget_drains_free;
        Alcotest.test_case "cancel stops paying within the poll bound" `Quick
          test_cancel_stops_paying;
        Alcotest.test_case "skip-roots drain is free" `Quick test_skip_roots_drain_is_free;
      ] );
  ]
