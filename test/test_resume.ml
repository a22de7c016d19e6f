(* The recovery layer: budgets, the crash-safe record stream, resumable
   checkpoints, and the parallel crash drill.

   The load-bearing property is RESUME EQUIVALENCE: interrupt a run
   anywhere (result cap, deadline, cancel, injected fault), resume from
   its checkpoint, and the union of the streamed prefixes must be
   exactly the uninterrupted enumeration — same multiset, so zero
   results lost AND zero results duplicated. *)

module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint
module Stream = Scliques_core.Result_io.Stream
module Fault = Scoll.Fault

let set = Alcotest.testable NS.pp NS.equal
let temp suffix = Filename.temp_file "scliques_resume" suffix

let graph_of_case (family, n, m, seed) =
  let rng = Scoll.Rng.create seed in
  match family with
  | `Er -> Sgraph.Gen.erdos_renyi_gnm rng ~n ~m:(min m (n * (n - 1) / 2))
  | `Sf -> Sgraph.Gen.barabasi_albert rng ~n ~m_attach:(min (n - 1) (1 + (m mod 3)))

(* ---------- budget unit behavior ---------- *)

let test_zero_cap_trips_at_creation () =
  let b = Budget.create ~max_results:0 () in
  Alcotest.(check bool) "tripped before any result" false (Budget.live b);
  (match Budget.status b with
  | Budget.Truncated Budget.Max_results -> ()
  | _ -> Alcotest.fail "expected Truncated Max_results");
  (* so no engine emits anything under it, and every one can resume *)
  let g = Sgraph.Gen.exponential_gadget 3 in
  List.iter
    (fun (alg, workers) ->
      let r =
        E.run ?workers ~budget:(Budget.create ~max_results:0 ()) alg g ~s:2 (fun _ ->
            Alcotest.failf "%s emitted under a zero cap" (E.name alg))
      in
      Alcotest.(check int) (E.name alg) 0 r.E.emitted;
      Alcotest.(check bool) (E.name alg ^ " resumable") true (r.E.resumable <> None))
    ((E.Cs2_p, Some 2) :: List.map (fun alg -> (alg, None)) E.all)

let test_budget_trips () =
  let b = Budget.create ~deadline_s:0. () in
  let check = Budget.checker b in
  Alcotest.(check bool) "deadline 0 trips on the first poll" false (check ());
  Alcotest.(check bool) "sticky" false (Budget.live b);
  (match Budget.status b with
  | Budget.Truncated Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected Truncated Deadline");
  let b = Budget.create ~max_results:2 () in
  Budget.note_result b;
  Alcotest.(check bool) "below cap: live" true (Budget.live b);
  Budget.note_result b;
  Alcotest.(check bool) "at cap: tripped" false (Budget.live b);
  (match Budget.status b with
  | Budget.Truncated Budget.Max_results -> ()
  | _ -> Alcotest.fail "expected Truncated Max_results");
  let b = Budget.create () in
  Budget.request_cancel b;
  Alcotest.(check bool) "cancel is observed at the next poll" false (Budget.poll b);
  (match Budget.status b with
  | Budget.Truncated Budget.Cancelled -> ()
  | _ -> Alcotest.fail "expected Truncated Cancelled");
  let bytes = ref 0 in
  let b = Budget.create ~max_cache_bytes:100 ~cache_bytes:(fun () -> !bytes) () in
  Alcotest.(check bool) "under the byte cap" true (Budget.poll b);
  bytes := 101;
  Alcotest.(check bool) "over the byte cap" false (Budget.poll b);
  (match Budget.status b with
  | Budget.Truncated Budget.Max_cache_bytes -> ()
  | _ -> Alcotest.fail "expected Truncated Max_cache_bytes")

(* a bound that compares as "not yet" against every clock reading (NaN)
   would run unbounded: refused like a negative one *)
let test_budget_refuses_bad_limits () =
  List.iter
    (fun (what, mk) ->
      match mk () with
      | (_ : Budget.t) -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("deadline nan", fun () -> Budget.create ~deadline_s:Float.nan ());
      ("deadline -1", fun () -> Budget.create ~deadline_s:(-1.) ());
      ("deadline -inf", fun () -> Budget.create ~deadline_s:Float.neg_infinity ());
      ("max_results -1", fun () -> Budget.create ~max_results:(-1) ());
    ];
  let b = Budget.create ~deadline_s:Float.infinity () in
  Alcotest.(check bool) "an infinite deadline never trips" true (Budget.poll b)

let test_budget_first_trip_wins () =
  let b = Budget.create ~max_results:1 () in
  Budget.note_result b;
  Budget.request_cancel b;
  ignore (Budget.poll b : bool);
  match Budget.status b with
  | Budget.Truncated Budget.Max_results -> ()
  | _ -> Alcotest.fail "first trip must stick"

(* ---------- record stream ---------- *)

let test_stream_round_trip () =
  let path = temp ".stream" in
  let w = Stream.open_writer path in
  let sets =
    [ NS.of_list [ 0; 1; 2 ]; NS.of_list [ 7 ]; NS.empty; NS.of_list [ 3; 9 ] ]
  in
  List.iter (Stream.write_set w) sets;
  Stream.close w;
  let got, tail = Stream.read_results path in
  (match tail with `Clean -> () | `Torn -> Alcotest.fail "clean file read Torn");
  Alcotest.(check (list set)) "round trip" sets got;
  Sys.remove path

let test_stream_torn_tail () =
  let path = temp ".stream" in
  let w = Stream.open_writer path in
  Stream.write_set w (NS.of_list [ 1; 2 ]);
  Stream.write_set w (NS.of_list [ 3 ]);
  Stream.close w;
  let _, clean_len, _ = Stream.read_records path in
  (* simulate a crash mid-write: append half a record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00\xde\xad";
  close_out oc;
  let got, len, tail = Stream.read_records path in
  (match tail with `Torn -> () | `Clean -> Alcotest.fail "torn tail undetected");
  Alcotest.(check int) "clean prefix unchanged" clean_len len;
  Alcotest.(check int) "intact records survive" 2 (List.length got);
  (* resume after the crash: truncate the tear, append, reread clean *)
  let w = Stream.open_append path ~clean_len:len in
  Stream.write_set w (NS.of_list [ 4; 5 ]);
  Stream.close w;
  let got, tail = Stream.read_results path in
  (match tail with `Clean -> () | `Torn -> Alcotest.fail "tear survived append");
  Alcotest.(check (list set)) "history + appended"
    [ NS.of_list [ 1; 2 ]; NS.of_list [ 3 ]; NS.of_list [ 4; 5 ] ]
    got;
  Sys.remove path

let test_stream_corrupt_crc () =
  let path = temp ".stream" in
  let w = Stream.open_writer path in
  Stream.write_set w (NS.of_list [ 1 ]);
  Stream.write_set w (NS.of_list [ 2 ]);
  Stream.close w;
  (* flip a payload byte of the second record: CRC catches it and the
     record is dropped as a tear, keeping the first *)
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET : int);
  ignore (Unix.write_substring fd "9" 0 1 : int);
  Unix.close fd;
  let got, _, tail = Stream.read_records path in
  (match tail with `Torn -> () | `Clean -> Alcotest.fail "bit rot undetected");
  Alcotest.(check (list string)) "prefix before the bad CRC" [ "1" ] got;
  Sys.remove path

let test_stream_write_fault () =
  let path = temp ".stream" in
  let fault = Fault.create () in
  Fault.arm_nth fault ~site:"stream.write" ~n:3;
  let w = Stream.open_writer ~fault path in
  Stream.write_set w (NS.of_list [ 1 ]);
  Stream.write_set w (NS.of_list [ 2 ]);
  (try
     Stream.write_set w (NS.of_list [ 3 ]);
     Alcotest.fail "armed fault did not fire"
   with Fault.Injected site -> Alcotest.(check string) "site" "stream.write#3" site);
  Stream.close w;
  let got, _ = Stream.read_results path in
  Alcotest.(check (list set)) "records before the fault survive"
    [ NS.of_list [ 1 ]; NS.of_list [ 2 ] ]
    got;
  Sys.remove path

(* ---------- checkpoints ---------- *)

let test_stream_fsync_fault () =
  (* the fsync fault fires after the flush: every record is in the file,
     the writer is closed anyway, and a second close is a no-op *)
  let path = temp ".stream" in
  let fault = Fault.create () in
  Fault.arm_nth fault ~site:"stream.fsync" ~n:1;
  let w = Stream.open_writer ~fault path in
  Stream.write_set w (NS.of_list [ 1 ]);
  Stream.write_set w (NS.of_list [ 2 ]);
  (try
     Stream.close w;
     Alcotest.fail "armed fault did not fire"
   with Fault.Injected site -> Alcotest.(check string) "site" "stream.fsync#1" site);
  Stream.close w;
  let got, _ = Stream.read_results path in
  Alcotest.(check (list set)) "flushed records survive"
    [ NS.of_list [ 1 ]; NS.of_list [ 2 ] ]
    got;
  Sys.remove path

let test_stream_open_resume () =
  (* a resume keeps exactly the records its checkpoint counts: later
     records and a torn tail go, and a stream holding fewer is refused *)
  let path = temp ".stream" in
  let w = Stream.open_writer path in
  List.iter (fun v -> Stream.write_set w (NS.singleton v)) [ 1; 2; 3; 4 ];
  Stream.close w;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00\xde\xad";
  close_out oc;
  let w = Stream.open_resume ~from:path path ~records:2 in
  Stream.write_set w (NS.singleton 9);
  Stream.close w;
  let got, tail = Stream.read_results path in
  (match tail with `Clean -> () | `Torn -> Alcotest.fail "tear survived the resume");
  Alcotest.(check (list set)) "vouched records + appended"
    [ NS.singleton 1; NS.singleton 2; NS.singleton 9 ]
    got;
  (match Stream.open_resume ~from:path path ~records:4 with
  | (_ : Stream.writer) -> Alcotest.fail "a short stream was reopened"
  | exception Sgraph.Io_error.Parse_error { msg; _ } ->
      Alcotest.(check string) "refusal"
        "stream holds 3 intact records but the checkpoint vouches for 4" msg);
  (* resuming into another path copies the vouched records there,
     replacing what the target held *)
  let other = temp ".stream" in
  let w = Stream.open_writer other in
  Stream.write_set w (NS.singleton 7);
  Stream.close w;
  let w = Stream.open_resume ~from:path other ~records:2 in
  Stream.write_set w (NS.singleton 8);
  Stream.close w;
  Alcotest.(check (list set)) "copied records + appended"
    [ NS.singleton 1; NS.singleton 2; NS.singleton 8 ]
    (fst (Stream.read_results other));
  Alcotest.(check (list set)) "the source is left alone"
    [ NS.singleton 1; NS.singleton 2; NS.singleton 9 ]
    (fst (Stream.read_results path));
  Sys.remove other;
  Sys.remove path;
  let w = Stream.open_resume ~from:path path ~records:0 in
  Stream.close w;
  Alcotest.(check int) "a missing stream with nothing vouched starts empty" 0
    (List.length (fst (Stream.read_results path)));
  Sys.remove path

let test_checkpoint_round_trip () =
  let path = temp ".ck" in
  let states =
    [
      Ckpt.Roots { retired = [ 0; 3; 4; 17 ] };
      Ckpt.Roots { retired = [] };
      Ckpt.Pd_frontier
        {
          index = [ NS.of_list [ 1; 2 ]; NS.of_list [ 5 ] ];
          queue = [ NS.of_list [ 5 ] ];
        };
      Ckpt.Brute_mask { next_mask = 12345 };
    ]
  in
  List.iter
    (fun state ->
      let t =
        { Ckpt.algorithm = "CSCliques2PF"; s = 2; n = 30; m = 45; min_size = 3;
          emitted = 7; state }
      in
      Ckpt.save t path;
      let back = Ckpt.load path in
      Alcotest.(check string) "algorithm" t.Ckpt.algorithm back.Ckpt.algorithm;
      Alcotest.(check int) "emitted" t.Ckpt.emitted back.Ckpt.emitted;
      Alcotest.(check string) "family" (Ckpt.family state) (Ckpt.family back.Ckpt.state);
      match (state, back.Ckpt.state) with
      | Ckpt.Roots { retired = a }, Ckpt.Roots { retired = b } ->
          Alcotest.(check (list int)) "retired" a b
      | Ckpt.Pd_frontier { index = ia; queue = qa }, Ckpt.Pd_frontier { index = ib; queue = qb }
        ->
          Alcotest.(check (list set)) "index" ia ib;
          Alcotest.(check (list set)) "queue" qa qb
      | Ckpt.Brute_mask { next_mask = a }, Ckpt.Brute_mask { next_mask = b } ->
          Alcotest.(check int) "mask" a b
      | _ -> Alcotest.fail "state shape changed across the round trip")
    states;
  Sys.remove path

let test_checkpoint_compat () =
  let t =
    { Ckpt.algorithm = "PD"; s = 2; n = 10; m = 9; min_size = 0; emitted = 1;
      state = Ckpt.Pd_frontier { index = []; queue = [] } }
  in
  Ckpt.check_compat t ~s:2 ~n:10 ~m:9 ~min_size:0;
  List.iter
    (fun (label, f) ->
      try
        f ();
        Alcotest.failf "mismatched %s accepted" label
      with Failure _ -> ())
    [
      ("s", fun () -> Ckpt.check_compat t ~s:3 ~n:10 ~m:9 ~min_size:0);
      ("n", fun () -> Ckpt.check_compat t ~s:2 ~n:11 ~m:9 ~min_size:0);
      ("m", fun () -> Ckpt.check_compat t ~s:2 ~n:10 ~m:8 ~min_size:0);
      ("min_size", fun () -> Ckpt.check_compat t ~s:2 ~n:10 ~m:9 ~min_size:2);
    ]

let test_checkpoint_atomic_save () =
  let path = temp ".ck" in
  let v1 =
    { Ckpt.algorithm = "PD"; s = 2; n = 10; m = 9; min_size = 0; emitted = 4;
      state = Ckpt.Roots { retired = [ 1; 2 ] } }
  in
  Ckpt.save v1 path;
  let fault = Fault.create () in
  Fault.arm_nth fault ~site:"ckpt.rename" ~n:1;
  let v2 = { v1 with Ckpt.emitted = 9 } in
  (try
     Ckpt.save ~fault v2 path;
     Alcotest.fail "armed rename fault did not fire"
   with Fault.Injected _ -> ());
  let back = Ckpt.load path in
  Alcotest.(check int) "crash during save leaves the old checkpoint" 4
    back.Ckpt.emitted;
  Sys.remove path

let test_checkpoint_refuses_torn () =
  let path = temp ".ck" in
  Ckpt.save
    { Ckpt.algorithm = "PD"; s = 2; n = 4; m = 3; min_size = 0; emitted = 0;
      state = Ckpt.Roots { retired = [] } }
    path;
  (* chop the end record off: a load must refuse, not silently resume
     from half a state *)
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 3);
  Unix.close fd;
  (try
     ignore (Ckpt.load path : Ckpt.t);
     Alcotest.fail "torn checkpoint accepted"
   with Sgraph.Io_error.Parse_error { file; _ } ->
     Alcotest.(check string) "refusal names the file" path file);
  Sys.remove path

(* ---------- typed refusals of CRC-valid but malformed content ---------- *)

(* A record the CRC vouches for can still hold bytes no writer of this
   module produces. Each must be refused as a Parse_error naming the
   file, never accepted or escaping as an untyped exception. *)
let expect_refusal what path f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Sgraph.Io_error.Parse_error { file; _ } ->
      Alcotest.(check string) (what ^ ": refusal names the file") path file

let stream_of_records records =
  let path = temp ".stream" in
  let w = Stream.open_writer path in
  List.iter (Stream.write_record w) records;
  Stream.close w;
  path

let test_stream_negative_id_refused () =
  let path = stream_of_records [ "0 1"; "-5 3" ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_refusal "negative id in read_results" path (fun () -> Stream.read_results path);
      (* build decodes the ids too, and must refuse before it indexes by them *)
      expect_refusal "negative id in Index.build" path (fun () ->
          Scliques_core.Result_io.Index.build ~s:2 ~n:8 ~fingerprint:(fun _ -> 0) path))

let test_stream_non_integer_refused () =
  let path = stream_of_records [ "1 x" ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      expect_refusal "non-integer id" path (fun () -> Stream.read_results path))

let test_checkpoint_junk_refused () =
  let path = temp ".ck" in
  let oc = open_out_bin path in
  output_string oc "junk\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> expect_refusal "junk checkpoint" path (fun () -> Ckpt.load path))

let test_checkpoint_bad_integer_refused () =
  let path = stream_of_records [ "H PD roots 2 x 9 0 0"; "E" ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> expect_refusal "bad header integer" path (fun () -> Ckpt.load path));
  let path = stream_of_records [ "H PD roots 2 10 9 0 0"; "R 1 two"; "E" ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> expect_refusal "bad root id" path (fun () -> Ckpt.load path))

(* ---------- resume equivalence (sequential) ---------- *)

let canonical results = List.sort NS.compare results

let full_run alg g ~s ~min_size =
  let acc = ref [] in
  let r = E.run ~min_size alg g ~s (fun c -> acc := c :: !acc) in
  (match r.E.outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "unlimited run truncated");
  canonical !acc

(* interrupt with [max_results = cap], resume to completion; the two
   streams must partition the full output *)
let split_run alg g ~s ~min_size ~cap =
  let first = ref [] in
  let budget = Budget.create ~max_results:cap () in
  let r1 = E.run ~min_size ~budget alg g ~s (fun c -> first := c :: !first) in
  match r1.E.outcome with
  | Budget.Complete ->
      Alcotest.(check (option Alcotest.reject))
        "complete runs carry no checkpoint" None
        (Option.map (fun _ -> ()) r1.E.resumable);
      (canonical !first, [])
  | Budget.Truncated _ ->
      let resume = Option.get r1.E.resumable in
      let second = ref [] in
      let r2 = E.run ~min_size ~resume alg g ~s (fun c -> second := c :: !second) in
      (match r2.E.outcome with
      | Budget.Complete -> ()
      | Budget.Truncated _ -> Alcotest.fail "unbudgeted resume truncated");
      (canonical !first, canonical !second)

(* With [large], a quarter of the PD and CS2PF cases draw n = 60-120 at
   s = 2, where PD's line 11 often reuses an earlier child: ER with n to
   2n edges, SF attaching one or two edges per node (m mod 3 < 2). The
   unpruned CS1 and CS2 stay small. *)
let arb_resume_case ~large =
  QCheck2.Gen.(
    oneofl [ `Er; `Sf ] >>= fun family ->
    oneofl [ E.Poly_delay; E.Cs1; E.Cs2; E.Cs2_pf; E.Brute ] >>= fun alg ->
    let small n_max =
      int_range 1 2 >>= fun s ->
      int_range 2 n_max >>= fun n ->
      int_range 0 (3 * n) >>= fun m -> return (s, n, m)
    in
    let big =
      int_range 60 120 >>= fun n ->
      (match family with `Er -> int_range n (2 * n) | `Sf -> int_range 0 1) >>= fun m ->
      return (2, n, m)
    in
    (match alg with
    | E.Brute -> small 10
    | (E.Poly_delay | E.Cs2_pf) when large -> frequency [ (3, small 24); (1, big) ]
    | _ -> small 24)
    >>= fun (s, n, m) ->
    int_range 0 2 >>= fun min_size ->
    int_range 1 8 >>= fun cap ->
    int_range 0 1_000_000 >>= fun seed ->
    return (family, alg, s, n, m, min_size, cap, seed))

let print_resume_case (family, alg, s, n, m, min_size, cap, seed) =
  Printf.sprintf "(%s, %s, s=%d, n=%d, m=%d, min_size=%d, cap=%d, seed=%d)"
    (match family with `Er -> "er" | `Sf -> "sf")
    (E.name alg) s n m min_size cap seed

let prop_resume_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"interrupt at max_results + resume = uninterrupted run"
       ~print:print_resume_case (arb_resume_case ~large:true)
       (fun (family, alg, s, n, m, min_size, cap, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let expected = full_run alg g ~s ~min_size in
         let part1, part2 = split_run alg g ~s ~min_size ~cap in
         let union = canonical (part1 @ part2) in
         if not (List.equal NS.equal union expected) then
           QCheck2.Test.fail_reportf
             "union <> full: %d + %d vs %d results@.first %a@.second %a@.full %a"
             (List.length part1) (List.length part2) (List.length expected)
             (Fmt.Dump.list NS.pp) part1 (Fmt.Dump.list NS.pp) part2
             (Fmt.Dump.list NS.pp) expected
         else true))

(* drive a run to completion one result cap at a time: every checkpoint
   along the way must compose, not just the first *)
let prop_chained_resume =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"chained single-step resumes compose"
       ~print:print_resume_case (arb_resume_case ~large:false)
       (fun (family, alg, s, n, m, min_size, _cap, seed) ->
         let g = graph_of_case (family, n, m, seed) in
         let expected = full_run alg g ~s ~min_size in
         let acc = ref [] in
         let resume = ref None in
         let steps = ref 0 in
         let continue = ref true in
         while !continue do
           incr steps;
           if !steps > 5000 then Alcotest.fail "resume chain does not terminate";
           let budget = Budget.create ~max_results:1 () in
           let r =
             E.run ~min_size ~budget ?resume:!resume alg g ~s
               (fun c -> acc := c :: !acc)
           in
           match r.E.outcome with
           | Budget.Complete -> continue := false
           | Budget.Truncated _ -> resume := Some (Option.get r.E.resumable)
         done;
         List.equal NS.equal (canonical !acc) expected))

(* ---------- resume equivalence (parallel) + crash drill ---------- *)

let par_case_graph seed =
  Sgraph.Gen.barabasi_albert (Scoll.Rng.create seed) ~n:36 ~m_attach:2

let test_parallel_resume () =
  let g = par_case_graph 11 in
  let s = 2 in
  let expected = canonical (Scliques_core.Parallel.enumerate ~workers:2 g ~s) in
  let run ?resume budget =
    let got = ref [] in
    let r = E.run ~workers:3 ~budget ?resume E.Cs2_p g ~s (fun c -> got := c :: !got) in
    (r, !got)
  in
  List.iter
    (fun cap ->
      let r1, part1 = run (Budget.create ~max_results:cap ()) in
      match r1.E.outcome with
      | Budget.Complete ->
          Alcotest.(check (list set)) "complete parallel run" expected (canonical part1)
      | Budget.Truncated _ ->
          let r2, part2 = run ?resume:r1.E.resumable (Budget.unlimited ()) in
          (match r2.E.outcome with
          | Budget.Complete -> ()
          | Budget.Truncated _ -> Alcotest.fail "unbudgeted resume truncated");
          Alcotest.(check (list set))
            (Printf.sprintf "cap=%d: union of the two runs" cap)
            expected
            (canonical (part1 @ part2)))
    [ 1; 5; 40; 10_000 ]

let test_parallel_deadline () =
  let g = par_case_graph 12 in
  let budget = Budget.create ~deadline_s:0. ~poll_every:1 () in
  let r = E.run ~workers:3 ~budget E.Cs2_p g ~s:2 ignore in
  (match r.E.outcome with
  | Budget.Truncated Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected Truncated Deadline");
  Alcotest.(check int) "zero deadline commits nothing" 0 r.E.emitted;
  Alcotest.(check bool) "and retires nothing" true
    (r.E.resumable = Some (Ckpt.Roots { retired = [] }))

(* recover exactly like the CLI: resume skipping the roots whose results
   reached the sink before the failure *)
let recover g ~s retired =
  let got = ref [] in
  let r =
    E.run ~workers:3 ~resume:(Ckpt.Roots { retired }) E.Cs2_p g ~s (fun c ->
        got := c :: !got)
  in
  (match r.E.outcome with
  | Budget.Complete -> ()
  | Budget.Truncated _ -> Alcotest.fail "recovery run truncated");
  !got

let test_parallel_crash_drill () =
  let g = par_case_graph 13 in
  let s = 2 in
  let expected = canonical (Scliques_core.Parallel.enumerate ~workers:2 g ~s) in
  (* crash the m-th executed work item in some worker domain; the run
     must neither deadlock nor corrupt the committed/retired bookkeeping
     observed through the streaming callback *)
  List.iter
    (fun m ->
      let fault = Fault.create () in
      Fault.arm_nth fault ~site:"par.task" ~n:m;
      let streamed = ref [] in
      let retired = ref [] in
      let budget = Budget.unlimited () in
      let crashed =
        try
          let (_ : Budget.outcome), (_ : int list) =
            Scliques_core.Parallel.run ~workers:3 ~budget ~fault g ~s
              (fun root results ->
                streamed := results @ !streamed;
                retired := root :: !retired)
          in
          false
        with Fault.Injected _ -> true
      in
      if crashed then
        Alcotest.(check (list set))
          (Printf.sprintf "crash at task %d: streamed + recovery = full" m)
          expected
          (canonical (!streamed @ recover g ~s !retired))
      else
        (* the fault site was never reached (fewer than m tasks): the
           run must then simply be correct *)
        Alcotest.(check (list set))
          (Printf.sprintf "fault beyond task count (m=%d)" m)
          expected (canonical !streamed))
    [ 1; 2; 7; 23; 1_000_000 ]

(* The second of two helper spawns fails: [run] raises only after it has
   stopped and joined the helper spawned before, so no root reaches the
   sink once [run] has raised. The graph keeps a leaked helper busy well
   past the raise. *)
let test_parallel_spawn_failure () =
  let g = Sgraph.Gen.erdos_renyi (Scoll.Rng.create 15) ~n:300 ~avg_degree:10. in
  let fault = Fault.create () in
  Fault.arm_nth fault ~site:"par.spawn" ~n:2;
  let raised = Atomic.make false and late = Atomic.make 0 in
  (match
     Scliques_core.Parallel.run ~workers:3 ~budget:(Budget.unlimited ()) ~fault g
       ~s:2 (fun _ _ -> if Atomic.get raised then Atomic.incr late)
   with
  | (_ : Budget.outcome * int list) -> Alcotest.fail "run returned past a failed spawn"
  | exception Fault.Injected _ -> Atomic.set raised true);
  Unix.sleepf 0.2;
  Alcotest.(check int) "spawns attempted" 2 (Fault.hits fault "par.spawn");
  Alcotest.(check int) "sink calls after run raised" 0 (Atomic.get late)

let test_sink_failure_keeps_root_uncommitted () =
  let g = par_case_graph 14 in
  let s = 2 in
  let expected = canonical (Scliques_core.Parallel.enumerate ~workers:2 g ~s) in
  let streamed = ref [] in
  let retired = ref [] in
  let calls = ref 0 in
  let crashed =
    try
      let (_ : Budget.outcome), (_ : int list) =
        Scliques_core.Parallel.run ~workers:2 ~budget:(Budget.unlimited ()) g ~s
          (fun root results ->
            incr calls;
            if !calls = 3 then failwith "sink full";
            streamed := results @ !streamed;
            retired := root :: !retired)
      in
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "third sink call aborted the run" true crashed;
  Alcotest.(check (list set)) "failed sink call's root was not retired"
    expected
    (canonical (!streamed @ recover g ~s !retired))

(* ---------- record codec against the list-built one ---------- *)

(* [Stream.encode_set] and [decode_set] as first written: through lists
   of tokens. The codec must keep their bytes and their verdicts. *)
let list_encode set = String.concat " " (List.map string_of_int (NS.to_list set))

let list_decode ?(file = "<string>") payload =
  let id tok =
    match int_of_string_opt tok with
    | Some v when v >= 0 -> v
    | Some _ -> Sgraph.Io_error.failf ~file ~line:0 "negative node id %S" tok
    | None -> Sgraph.Io_error.failf ~file ~line:0 "expected a node id, got %S" tok
  in
  NS.of_list
    (List.filter_map
       (fun tok -> if String.length tok = 0 then None else Some (id tok))
       (String.split_on_char ' ' payload))

let prop_encode_matches_list =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"record encoder = list-built encoder"
       ~print:QCheck2.Print.(list int)
       QCheck2.Gen.(
         list_size (int_range 0 30)
           (oneof
              [
                int_range 0 9; int_range 0 100_000; int_range 0 max_int; int_range (-1000) (-1);
                oneofl [ 0; 9; 10; 99; 100; max_int; min_int; -1 ];
              ]))
       (fun ids ->
         let set = NS.of_list ids in
         String.equal (list_encode set) (Stream.encode_set set)))

let prop_decode_matches_list =
  let token =
    QCheck2.Gen.(
      oneof
        [
          map string_of_int (int_range 0 100_000);
          map string_of_int (int_range 0 max_int);
          oneofl
            [
              "+5"; "007"; "0x1f"; "0b101"; "0o17"; "1_0"; "-0"; "-3"; "x"; ""; "1e3"; "5x";
              "123456789012345678"; "999999999999999999"; "1234567890123456789";
              "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
              "00000000000000000000001"; "\xc2\xb3";
            ];
        ])
  in
  let sep = QCheck2.Gen.oneofl [ " "; " "; " "; "  "; "\t"; ","; "" ] in
  let payload =
    QCheck2.Gen.(
      oneof
        [
          (* what the encoder writes, in and out of order *)
          map
            (fun ids -> String.concat " " (List.map string_of_int ids))
            (list_size (int_range 0 20) (int_range 0 5_000));
          (* anything else a foreign writer might *)
          pair (oneofl [ ""; " "; "  " ]) (list_size (int_range 0 8) (pair token sep))
          >|= fun (lead, parts) ->
          lead ^ String.concat "" (List.map (fun (t, s) -> t ^ s) parts);
        ])
  in
  let outcome f =
    match f () with
    | set -> Ok set
    | exception Sgraph.Io_error.Parse_error { file; line; msg } -> Error (file, line, msg)
  in
  QCheck2.Test.make ~count:3000 ~name:"record decoder = list-built decoder"
    ~print:(Printf.sprintf "%S") payload (fun p ->
      match
        ( outcome (fun () -> list_decode ~file:"f" p),
          outcome (fun () -> Stream.decode_set ~file:"f" p) )
      with
      | Ok want, Ok got -> NS.equal want got
      | Error want, Error got -> want = got
      | _ -> false)
  |> QCheck_alcotest.to_alcotest

let suites =
  [
    ( "resume",
      [
        Alcotest.test_case "budget trips each limit" `Quick test_budget_trips;
        Alcotest.test_case "budget first trip wins" `Quick test_budget_first_trip_wins;
        Alcotest.test_case "zero result cap trips at creation" `Quick
          test_zero_cap_trips_at_creation;
        Alcotest.test_case "stream round trip" `Quick test_stream_round_trip;
        Alcotest.test_case "stream torn tail" `Quick test_stream_torn_tail;
        Alcotest.test_case "stream corrupt CRC" `Quick test_stream_corrupt_crc;
        Alcotest.test_case "stream write fault" `Quick test_stream_write_fault;
        Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_round_trip;
        Alcotest.test_case "checkpoint compat" `Quick test_checkpoint_compat;
        Alcotest.test_case "checkpoint atomic save" `Quick test_checkpoint_atomic_save;
        Alcotest.test_case "checkpoint refuses torn file" `Quick
          test_checkpoint_refuses_torn;
        Alcotest.test_case "stream negative id refused typed" `Quick
          test_stream_negative_id_refused;
        Alcotest.test_case "stream non-integer id refused typed" `Quick
          test_stream_non_integer_refused;
        Alcotest.test_case "checkpoint junk refused typed" `Quick
          test_checkpoint_junk_refused;
        Alcotest.test_case "checkpoint bad integer refused typed" `Quick
          test_checkpoint_bad_integer_refused;
        prop_resume_equivalence;
        prop_chained_resume;
        Alcotest.test_case "parallel resume equivalence" `Quick test_parallel_resume;
        Alcotest.test_case "parallel deadline" `Quick test_parallel_deadline;
        Alcotest.test_case "parallel crash drill" `Quick test_parallel_crash_drill;
        Alcotest.test_case "parallel spawn failure" `Quick test_parallel_spawn_failure;
        Alcotest.test_case "parallel sink failure" `Quick
          test_sink_failure_keeps_root_uncommitted;
        Alcotest.test_case "stream fsync fault" `Quick test_stream_fsync_fault;
        Alcotest.test_case "stream resumes at vouched records" `Quick
          test_stream_open_resume;
        prop_encode_matches_list;
        prop_decode_matches_list;
        Alcotest.test_case "budget refuses negative and NaN limits" `Quick
          test_budget_refuses_bad_limits;
      ] );
  ]
