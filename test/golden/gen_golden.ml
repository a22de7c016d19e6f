(* Golden-corpus generator: prints the canonical (sorted) maximal
   connected s-clique sets of one fixture graph for s = 1, 2, 3 — after
   re-enumerating them with every algorithm variant in the library and
   checking that all twelve agree. The dune rules diff this output
   against the committed .expected files, so any semantic drift in any
   variant fails `dune runtest` with the exact set-level difference;
   `dune promote` re-blesses the output after an intentional change.

   Fixtures stay within Brute_force.max_nodes so the exhaustive oracle is
   always one of the twelve voters. *)

module NS = Sgraph.Node_set
module E = Scliques_core.Enumerate
module C2 = Scliques_core.Cs_cliques2
module PD = Scliques_core.Poly_delay

let nh ~s g = Scliques_core.Neighborhood.create ~s g

let collect iter_fn =
  let acc = ref [] in
  iter_fn (fun c -> acc := c :: !acc);
  List.sort NS.compare !acc

let variants =
  let run alg g s = E.sorted_results alg g ~s in
  let pd ~queue_mode ~index_mode g s =
    collect (fun yield ->
        ignore
          (PD.run ~queue_mode ~index_mode (nh ~s g) yield : PD.run_stats * PD.frontier))
  in
  [
    ("cs1", run E.Cs1);
    ("cs2", run E.Cs2);
    ("cs2-p", run E.Cs2_p);
    ("cs2-f", run E.Cs2_f);
    ("cs2-pf", run E.Cs2_pf);
    ( "cs2-p-deg",
      fun g s ->
        collect (fun yield ->
            C2.run_degeneracy
              (C2.make_runner
                 ~rule:(C2.Cs2 { pivot = Some C2.Min_uncovered; feasibility = false })
                 (nh ~s g) yield))
    );
    ("pd-fifo-btree", pd ~queue_mode:PD.Fifo ~index_mode:PD.Btree);
    ("pd-fifo-hash", pd ~queue_mode:PD.Fifo ~index_mode:PD.Hashtable);
    ("pd-lf-btree", pd ~queue_mode:PD.Largest_first ~index_mode:PD.Btree);
    ("pd-lf-hash", pd ~queue_mode:PD.Largest_first ~index_mode:PD.Hashtable);
    (* low thresholds so the work-stealing split path runs even on
       fixture-sized graphs *)
    ( "parallel",
      fun g s ->
        Scliques_core.Parallel.enumerate ~workers:3 ~split_depth:4 ~split_width:2 g ~s
    );
    ( "brute",
      fun g s ->
        List.sort NS.compare
          (Scliques_core.Brute_force.maximal_connected_s_cliques g ~s) );
  ]

(* Resume equivalence over the corpus: interrupt the budgeted runner at
   roughly 25/50/75% of the output, resume from the in-memory checkpoint
   state, and require the union of the two streams to be exactly the
   uninterrupted reference. Prints nothing on success (the .expected
   files are untouched); disagreement fails the build like a variant
   mismatch. *)
module Budget = Scliques_core.Budget

let check_resume fixture g s reference =
  let total = List.length reference in
  if total > 0 then
    List.iter
      (fun alg ->
        List.iter
          (fun percent ->
            let cap = max 1 (total * percent / 100) in
            let acc = ref [] in
            let budget = Budget.create ~max_results:cap () in
            let r1 = E.run ~budget alg g ~s (fun c -> acc := c :: !acc) in
            (match r1.E.resumable with
            | None -> ()
            | Some resume ->
                let r2 = E.run ~resume alg g ~s (fun c -> acc := c :: !acc) in
                (match r2.E.outcome with
                | Budget.Complete -> ()
                | Budget.Truncated _ ->
                    Printf.eprintf
                      "gen_golden: unbudgeted resume of %s truncated on %s s=%d\n"
                      (E.name alg) fixture s;
                    exit 1));
            let union = List.sort NS.compare !acc in
            if not (List.equal NS.equal reference union) then begin
              Printf.eprintf
                "gen_golden: %s interrupted at %d%% (cap %d) + resume gives %d \
                 sets, expected %d on %s s=%d\n"
                (E.name alg) percent cap (List.length union) total fixture s;
              exit 1
            end)
          [ 25; 50; 75 ])
      [ E.Poly_delay; E.Cs1; E.Cs2_pf; E.Brute ]

(* Snapshot round trip over the corpus: the binary save/load path must
   reproduce the graph exactly; the caller then re-enumerates on the
   reloaded graph and requires bit-identical output. *)
let snapshot_round_trip fixture g =
  let path = Filename.temp_file "scliques-golden" ".sgr" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sgraph.Snapshot.save g path;
      let g' = Sgraph.Snapshot.load path in
      if not (Sgraph.Graph.equal g g') then begin
        Printf.eprintf "gen_golden: snapshot round trip changed %s\n" fixture;
        exit 1
      end;
      g')

let fixtures =
  [
    ("figure1", fun () -> fst (Sgraph.Gen.figure1 ()));
    ("figure3-h", fun () -> Sgraph.Gen.figure3_h ());
    ("petersen", fun () -> Sgraph.Gen.petersen ());
    ("grid-4x5", fun () -> Sgraph.Gen.grid 4 5);
    ("moon-moser-3x3", fun () -> Sgraph.Gen.complete_multipartite ~parts:3 ~part_size:3);
    ("exp-gadget-3", fun () -> Sgraph.Gen.exponential_gadget 3);
    ("er-18", fun () -> Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create 101) ~n:18 ~m:40);
    ( "sf-20",
      fun () -> Sgraph.Gen.barabasi_albert (Scoll.Rng.create 202) ~n:20 ~m_attach:2 );
    (* disconnection edge cases in one graph: a triangle, a path (its own
       component), a 4-cycle, and three isolated nodes (7, 8, 15) that
       must surface as singleton 1-cliques and survive I/O round trips *)
    ( "disconnected",
      fun () ->
        Sgraph.Graph.of_edges ~n:16
          [ (0, 1); (0, 2); (1, 2); (3, 4); (4, 5); (5, 6);
            (9, 10); (10, 11); (11, 12); (9, 12); (13, 14) ] );
  ]

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let g =
    match List.assoc_opt name fixtures with
    | Some build -> build ()
    | None ->
        Printf.eprintf "gen_golden: unknown fixture %S; known: %s\n" name
          (String.concat ", " (List.map fst fixtures));
        exit 2
  in
  Printf.printf "fixture %s: n=%d m=%d\n" name (Sgraph.Graph.n g) (Sgraph.Graph.m g);
  let reloaded = snapshot_round_trip name g in
  List.iter
    (fun s ->
      let reference =
        match variants with (_, run) :: _ -> run g s | [] -> assert false
      in
      List.iter
        (fun (vname, run) ->
          let got = run g s in
          if not (List.equal NS.equal reference got) then begin
            Printf.eprintf
              "gen_golden: variant %s disagrees on %s at s=%d (%d sets vs %d)\n" vname
              name s (List.length got) (List.length reference);
            exit 1
          end)
        variants;
      (* enumeration must be bit-identical on the snapshot-reloaded graph *)
      let via_snapshot = E.sorted_results E.Cs2_pf reloaded ~s in
      if not (List.equal NS.equal reference via_snapshot) then begin
        Printf.eprintf
          "gen_golden: snapshot-reloaded %s disagrees at s=%d (%d sets vs %d)\n" name
          s
          (List.length via_snapshot)
          (List.length reference);
        exit 1
      end;
      check_resume name g s reference;
      Printf.printf "s=%d count=%d\n" s (List.length reference);
      List.iter (fun c -> Printf.printf "  %s\n" (NS.to_string c)) reference)
    [ 1; 2; 3 ]
