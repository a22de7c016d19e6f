(* Unit + property tests for the Scliques_obs observability layer:
   histogram geometry and quantiles, the counter registry, the delay
   recorder (driven by a fake clock), the JSON/line-protocol sinks, and a
   wall-clock sanity check of PolyDelayEnum's delay on a path graph. *)

module H = Scliques_obs.Histogram
module C = Scliques_obs.Counters
module R = Scliques_obs.Recorder
module S = Scliques_obs.Sink
module O = Scliques_obs.Obs

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* ---------- histogram ---------- *)

let test_bucket_layout () =
  let lo0, hi0 = H.bucket_bounds 0 in
  close "underflow starts at 0" 0. lo0;
  close "underflow ends at 1ns" 1e-9 hi0;
  let lo_last, hi_last = H.bucket_bounds (H.bucket_count - 1) in
  close "overflow starts at 1000s" 1e3 lo_last;
  Alcotest.(check bool) "overflow is unbounded" true (hi_last = infinity);
  (* buckets tile the range: each upper bound is the next lower bound *)
  for i = 0 to H.bucket_count - 2 do
    let _, hi = H.bucket_bounds i in
    let lo, _ = H.bucket_bounds (i + 1) in
    close (Printf.sprintf "bucket %d/%d contiguous" i (i + 1)) hi lo
  done;
  (* a decade spans exactly buckets_per_decade buckets *)
  Alcotest.(check int) "1ns lands in bucket 1" 1 (H.bucket_index 1e-9);
  Alcotest.(check int) "one decade up"
    (1 + H.buckets_per_decade)
    (H.bucket_index 1e-8);
  Alcotest.(check int) "0 underflows" 0 (H.bucket_index 0.);
  Alcotest.(check int) "huge overflows" (H.bucket_count - 1) (H.bucket_index 1e9)

let test_bucket_membership () =
  (* every value falls inside the bounds of its own bucket (tiny relative
     slack for values that sit exactly on a float boundary) *)
  List.iter
    (fun v ->
      let i = H.bucket_index v in
      let lo, hi = H.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%g in bucket %d [%g,%g)" v i lo hi)
        true
        (lo <= v *. (1. +. 1e-12) && (v < hi || v *. (1. -. 1e-12) < hi)))
    [ 0.; 1e-10; 1e-9; 3.7e-8; 1e-6; 2.5e-4; 0.1; 1.; 37.; 999.; 1e3; 1e7 ]

let test_histogram_exact_stats () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  close "empty quantile" 0. (H.quantile h 0.5);
  List.iter (H.observe h) [ 0.001; 0.003; 0.002 ];
  Alcotest.(check int) "count" 3 (H.count h);
  close "sum" 0.006 (H.sum h);
  close "mean" 0.002 (H.mean h);
  close "min" 0.001 (H.min_value h);
  close "max" 0.003 (H.max_value h);
  H.observe h (-1.);
  close "negative clamps to 0" 0. (H.min_value h);
  Alcotest.check_raises "quantile domain" (Invalid_argument "Histogram.quantile")
    (fun () -> ignore (H.quantile h 1.5))

let float_list_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (oneof
         [ float_bound_inclusive 1e-6; float_bound_inclusive 1.; float_bound_inclusive 2e3 ]))

let prop_quantiles_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"quantiles are monotone and bounded by max"
       ~print:QCheck2.Print.(list float)
       float_list_gen
       (fun values ->
         let h = H.create () in
         List.iter (H.observe h) values;
         let p50 = H.quantile h 0.5
         and p95 = H.quantile h 0.95
         and p99 = H.quantile h 0.99 in
         H.min_value h <= p50 && p50 <= p95 && p95 <= p99 && p99 <= H.max_value h))

let prop_merge_is_concat =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"merged histogram equals histogram of concatenated values"
       ~print:QCheck2.Print.(pair (list float) (list float))
       QCheck2.Gen.(pair float_list_gen float_list_gen)
       (fun (xs, ys) ->
         let ha = H.create () and hb = H.create () and hall = H.create () in
         List.iter (H.observe ha) xs;
         List.iter (H.observe hb) ys;
         List.iter (H.observe hall) (xs @ ys);
         H.merge_into ~into:ha hb;
         H.counts ha = H.counts hall
         && H.count ha = H.count hall
         && Float.abs (H.sum ha -. H.sum hall) <= 1e-9 *. (1. +. H.sum hall)
         && H.min_value ha = H.min_value hall
         && H.max_value ha = H.max_value hall
         && List.for_all
              (fun q -> H.quantile ha q = H.quantile hall q)
              [ 0.; 0.5; 0.9; 0.95; 0.99; 1. ]))

(* ---------- counters ---------- *)

let test_counters () =
  let t = C.create () in
  let a = C.counter t "a" in
  C.incr a;
  C.add a 4;
  Alcotest.(check int) "incr + add" 5 (C.value a);
  let a' = C.counter t "a" in
  C.incr a';
  Alcotest.(check int) "same handle for same name" 6 (C.value a);
  C.set_max a 3;
  Alcotest.(check int) "set_max keeps larger current" 6 (C.value a);
  C.set_max a 10;
  Alcotest.(check int) "set_max raises" 10 (C.value a);
  C.set a 2;
  Alcotest.(check int) "set overwrites" 2 (C.value a);
  ignore (C.counter t "z");
  ignore (C.counter t "m");
  Alcotest.(check (list (pair string int)))
    "to_list sorted by name"
    [ ("a", 2); ("m", 0); ("z", 0) ]
    (C.to_list t);
  Alcotest.(check (option int)) "find known" (Some 2) (C.find t "a");
  Alcotest.(check (option int)) "find unknown" None (C.find t "nope")

let test_counters_merge () =
  let a = C.create () and b = C.create () in
  C.add (C.counter a "x") 3;
  C.add (C.counter b "x") 4;
  C.add (C.counter b "only_b") 7;
  C.merge_into ~into:a b;
  Alcotest.(check (list (pair string int)))
    "merge sums and creates"
    [ ("only_b", 7); ("x", 7) ]
    (C.to_list a);
  Alcotest.(check (list (pair string int)))
    "source untouched"
    [ ("only_b", 7); ("x", 4) ]
    (C.to_list b)

let test_counters_merge_marks () =
  let a = C.create () and b = C.create () in
  C.set_max (C.counter a "depth") 35;
  C.set_max (C.counter b "depth") 9;
  C.add (C.counter a "calls") 5;
  C.add (C.counter b "calls") 6;
  C.set_max (C.counter b "only_b_mark") 4;
  C.merge_into ~into:a b;
  Alcotest.(check (list (pair string int)))
    "marks keep the maximum, counts add"
    [ ("calls", 11); ("depth", 35); ("only_b_mark", 4) ]
    (C.to_list a);
  (* a merged-in mark stays a mark: merging into a fresh registry twice
     keeps the larger value, not the sum *)
  let into = C.create () in
  C.merge_into ~into a;
  C.merge_into ~into b;
  Alcotest.(check (list (pair string int)))
    "merged marks merge by max again"
    [ ("calls", 17); ("depth", 35); ("only_b_mark", 4) ]
    (C.to_list into)

(* ---------- recorder (fake clock) ---------- *)

let fake_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let test_recorder_gaps () =
  let clock, advance = fake_clock () in
  let r = R.create ~clock () in
  Alcotest.(check int) "no ticks yet" 0 (R.count r);
  Alcotest.(check (option (float 0.))) "no first delay yet" None (R.first_delay r);
  advance 0.5;
  R.tick r;
  advance 0.25;
  R.tick r;
  advance 0.125;
  R.tick r;
  Alcotest.(check int) "three ticks" 3 (R.count r);
  close "first gap" 0.5 (Option.get (R.first_delay r));
  close "max gap" 0.5 (R.max_delay r);
  close "mean gap" (0.875 /. 3.) (R.mean r);
  close "total elapsed" 0.875 (R.total r);
  let s = R.summary r in
  Alcotest.(check bool) "summary quantiles monotone" true
    R.(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max)

let test_recorder_reset () =
  let clock, advance = fake_clock () in
  let r = R.create ~clock () in
  advance 100.;
  R.reset r;
  advance 0.5;
  R.tick r;
  close "gap measured from reset, not create" 0.5 (R.max_delay r)

let test_recorder_merge () =
  let clock_a, advance_a = fake_clock () in
  let a = R.create ~clock:clock_a () in
  advance_a 0.5;
  R.tick a;
  advance_a 0.5;
  R.tick a;
  let clock_b, advance_b = fake_clock () in
  let b = R.create ~clock:clock_b () in
  advance_b 0.125;
  R.tick b;
  R.merge_into ~into:a b;
  Alcotest.(check int) "counts sum" 3 (R.count a);
  close "first takes the minimum" 0.125 (Option.get (R.first_delay a));
  close "max survives" 0.5 (R.max_delay a);
  close "total takes the maximum" 1.0 (R.total a)

(* ---------- sinks ---------- *)

let test_json_rendering () =
  Alcotest.(check string) "compact object"
    {|{"a":1,"b":[true,null,"x\"y"],"c":1.5}|}
    (S.to_string
       (S.Obj
          [ ("a", S.Int 1); ("b", S.List [ S.Bool true; S.Null; S.String "x\"y" ]);
            ("c", S.Float 1.5) ]));
  Alcotest.(check string) "nan degrades to null" {|{"v":null}|}
    (S.to_string (S.Obj [ ("v", S.Float Float.nan) ]))

let test_line_protocol () =
  Alcotest.(check string) "tags and typed fields"
    {|cache\ stats,algo=pd hits=3i,rate=0.5,ok=true|}
    (S.line_protocol ~measurement:"cache stats" ~tags:[ ("algo", "pd") ]
       [ ("hits", S.Int 3); ("rate", S.Float 0.5); ("ok", S.Bool true);
         ("skipped", S.Obj []) ])

let test_write_file () =
  let path = Filename.temp_file "scliques_obs" ".json" in
  S.write_file ~path "{}";
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "newline-terminated" "{}\n" contents

(* ---------- the Obs façade ---------- *)

let test_obs_facade () =
  let clock, advance = fake_clock () in
  let o = O.create ~clock () in
  C.incr (O.counter o "x.events");
  advance 0.5;
  O.tick o;
  Alcotest.(check int) "tick reaches the recorder" 1 (R.count (O.delay o));
  let json = O.to_json o in
  Alcotest.(check bool) "snapshot carries counters" true
    (contains json {|"x.events":1|});
  Alcotest.(check bool) "snapshot carries the delay summary" true
    (contains json {|"p95":|});
  let o2 = O.create ~clock () in
  C.add (O.counter o2 "x.events") 2;
  O.merge_into ~into:o o2;
  Alcotest.(check (option int)) "merge sums counters" (Some 3)
    (C.find (O.counters o) "x.events");
  let empty = O.create ~clock () in
  Alcotest.(check bool) "empty recorder omits the delay object" true
    (not (contains (O.to_json empty) {|"delay"|}))

(* ---------- wall-clock delay sanity on a path graph ---------- *)

let test_pd_delay_sanity () =
  (* PolyDelayEnum on a path: per-result delay must stay tiny, and the
     recorder must see exactly one tick per emitted result *)
  let g = Sgraph.Gen.path 200 in
  let obs = O.create () in
  let results = Test_support.run_results ~obs Scliques_core.Enumerate.Poly_delay g ~s:2 in
  Alcotest.(check int) "one tick per result" (List.length results)
    (R.count (O.delay obs));
  Alcotest.(check bool) "max delay bounded (generous)" true
    (R.max_delay (O.delay obs) < 5.);
  let s = R.summary (O.delay obs) in
  Alcotest.(check bool) "quantiles monotone on real data" true
    R.(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
  (* the deterministic delay proxy: ExtendMax calls between emissions are
     O(1) on a path, independent of n *)
  let gap n =
    let o = O.create () in
    ignore
      (Test_support.run_results ~obs:o Scliques_core.Enumerate.Poly_delay
         (Sgraph.Gen.path n) ~s:2);
    Option.get (C.find (O.counters o) "pd.max_extend_calls_between_emits")
  in
  Alcotest.(check int) "work-per-result flat across n" (gap 50) (gap 400)

(* ---------- the driver's delay clock ---------- *)

let test_run_delay_clock () =
  (* a fake clock advancing one second per read: every emitted result is
     one recorded delay, and the gaps add up to the run's total — the
     clock starts once per run, never once per root *)
  let g = Sgraph.Gen.exponential_gadget 4 in
  List.iter
    (fun alg ->
      let name = Scliques_core.Enumerate.name alg in
      let t = ref 0. in
      let obs =
        O.create
          ~clock:(fun () ->
            t := !t +. 1.;
            !t)
          ()
      in
      let r = Scliques_core.Enumerate.run ~obs alg g ~s:2 ignore in
      let d = O.delay obs in
      Alcotest.(check int) (name ^ ": one delay per result") r.emitted (R.count d);
      Alcotest.(check (float 1e-9))
        (name ^ ": gaps sum to the total")
        (R.total d)
        (R.mean d *. float_of_int (R.count d));
      if alg = Scliques_core.Enumerate.Brute then
        Alcotest.(check (option int)) "brute.emits counted" (Some r.emitted)
          (C.find (O.counters obs) "brute.emits"))
    Scliques_core.Enumerate.all

let suites =
  [
    ( "obs_histogram",
      [
        Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
        Alcotest.test_case "bucket membership" `Quick test_bucket_membership;
        Alcotest.test_case "exact side statistics" `Quick test_histogram_exact_stats;
        prop_quantiles_monotone;
        prop_merge_is_concat;
      ] );
    ( "obs_counters",
      [
        Alcotest.test_case "registry operations" `Quick test_counters;
        Alcotest.test_case "merge" `Quick test_counters_merge;
        Alcotest.test_case "merge keeps the larger high-water mark" `Quick
          test_counters_merge_marks;
      ] );
    ( "obs_recorder",
      [
        Alcotest.test_case "gaps via fake clock" `Quick test_recorder_gaps;
        Alcotest.test_case "reset" `Quick test_recorder_reset;
        Alcotest.test_case "per-worker merge" `Quick test_recorder_merge;
      ] );
    ( "obs_sink",
      [
        Alcotest.test_case "json rendering" `Quick test_json_rendering;
        Alcotest.test_case "line protocol" `Quick test_line_protocol;
        Alcotest.test_case "write_file" `Quick test_write_file;
      ] );
    ( "obs_facade",
      [
        Alcotest.test_case "counters + recorder + snapshot" `Quick test_obs_facade;
        Alcotest.test_case "PD delay sanity on a path" `Quick test_pd_delay_sanity;
        Alcotest.test_case "run records one delay per result" `Quick
          test_run_delay_clock;
      ] );
  ]
