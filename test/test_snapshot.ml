(* Binary graph snapshots: round trips, atomicity, and refusal of torn or
   corrupted files. *)

module G = Sgraph.Graph
module Snap = Sgraph.Snapshot

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_tmp f =
  let path = Filename.temp_file "scliques" ".sgr" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_parse_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Parse_error")
  | exception Sgraph.Io_error.Parse_error { line; _ } ->
      check int (what ^ ": binary errors carry line 0") 0 line

let snapshot_tests =
  [
    Alcotest.test_case "round trip on a random graph" `Quick (fun () ->
        with_tmp (fun path ->
            let g =
              Sgraph.Gen.social_proxy (Scoll.Rng.create 11) ~n:120 ~avg_degree:7.
                ~communities:5
            in
            Snap.save g path;
            check bool "equal" true (G.equal g (Snap.load path))));
    Alcotest.test_case "round trip keeps isolated nodes" `Quick (fun () ->
        with_tmp (fun path ->
            let g = G.of_edges ~n:9 [ (0, 1); (4, 5) ] in
            Snap.save g path;
            let g' = Snap.load path in
            check int "n" 9 (G.n g');
            check bool "equal" true (G.equal g g')));
    Alcotest.test_case "round trip of the empty graph" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (G.empty 0) path;
            check int "n" 0 (G.n (Snap.load path))));
    Alcotest.test_case "save leaves no temp file behind" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (Sgraph.Gen.cycle 10) path;
            check bool "no .tmp" false (Sys.file_exists (path ^ ".tmp"))));
    Alcotest.test_case "save overwrites atomically" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (Sgraph.Gen.cycle 10) path;
            Snap.save (Sgraph.Gen.complete 4) path;
            check bool "second snapshot wins" true
              (G.equal (Sgraph.Gen.complete 4) (Snap.load path))));
    Alcotest.test_case "bad magic refused" `Quick (fun () ->
        with_tmp (fun path ->
            write_file path "NOTASNAP-plus-some-trailing-data........";
            expect_parse_error "magic" (fun () -> Snap.load path)));
    Alcotest.test_case "truncation refused at every byte length" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (Sgraph.Gen.cycle 5) path;
            let whole = read_file path in
            with_tmp (fun torn ->
                for len = 0 to String.length whole - 1 do
                  write_file torn (String.sub whole 0 len);
                  expect_parse_error
                    (Printf.sprintf "prefix of %d bytes" len)
                    (fun () -> Snap.load torn)
                done)));
    Alcotest.test_case "single corrupted byte refused anywhere" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (Sgraph.Gen.cycle 5) path;
            let whole = read_file path in
            with_tmp (fun bad ->
                (* flipping any byte after the magic must trip a CRC check,
                   a range check, or re-validation — never load silently *)
                for i = 8 to String.length whole - 1 do
                  let b = Bytes.of_string whole in
                  Bytes.set b i (Char.chr (Char.code whole.[i] lxor 0x41));
                  write_file bad (Bytes.to_string b);
                  expect_parse_error
                    (Printf.sprintf "byte %d flipped" i)
                    (fun () -> Snap.load bad)
                done)));
    Alcotest.test_case "trailing bytes refused" `Quick (fun () ->
        with_tmp (fun path ->
            Snap.save (Sgraph.Gen.cycle 5) path;
            write_file path (read_file path ^ "x");
            expect_parse_error "trailing" (fun () -> Snap.load path)));
    Alcotest.test_case "missing file raises Sys_error" `Quick (fun () ->
        match Snap.load "/nonexistent/dir/graph.sgr" with
        | exception Sys_error _ -> ()
        | _ -> Alcotest.fail "expected Sys_error");
    Alcotest.test_case "enumeration identical after snapshot round trip" `Quick
      (fun () ->
        with_tmp (fun path ->
            let g = Sgraph.Gen.exponential_gadget 3 in
            Snap.save g path;
            let g' = Snap.load path in
            let module E = Scliques_core.Enumerate in
            let sets alg g = Test_support.run_results alg g ~s:2 in
            check
              (Alcotest.list Test_support.ns)
              "same results" (sets E.Cs2_pf g) (sets E.Cs2_pf g')));
  ]

let suites = [ ("snapshot", snapshot_tests) ]
