(* Edit-script differential harness for incremental churn: random
   insert/delete scripts over ER and scale-free graphs, replayed through
   Sgraph.Overlay, with Enumerate.refresh checked bit-identical to a full
   re-enumeration at EVERY script prefix, across engines (CS2PF warm and
   cold, PolyDelayEnum, the parallel runner). The satellites ride along:
   Overlay m/compact bookkeeping, Components vs BFS reachability under
   deletions, Lri_cache invalidation accounting, and SGRDIFF1 torn-tail
   refusal. *)

module NS = Sgraph.Node_set
module G = Sgraph.Graph
module O = Sgraph.Overlay
module D = Sgraph.Diff
module E = Scliques_core.Enumerate
module NH = Scliques_core.Neighborhood
module RS = Scliques_core.Result_io.Stream
module RI = Scliques_core.Result_io.Index

let same_sets = List.equal NS.equal

let show_mismatch what expected actual =
  QCheck2.Test.fail_reportf
    "%s disagrees:@.expected %d sets: %a@.got %d sets: %a" what
    (List.length expected)
    (Fmt.Dump.list NS.pp) expected (List.length actual)
    (Fmt.Dump.list NS.pp) actual

(* (family, n, edge parameter, s, seed): same case shape as
   Test_differential, scaled down — every prefix of a 50+-edit script
   runs several full enumerations, and at s = 3 the power graph is
   near-complete. *)
let arb_churn_case =
  let open QCheck2.Gen in
  oneofl [ `Er; `Sf ] >>= fun family ->
  int_range 1 3 >>= fun s ->
  int_range 2 (if s >= 3 then 10 else 14) >>= fun n ->
  int_range 0 (2 * n) >>= fun m ->
  int_range 0 1_000_000 >>= fun seed ->
  return (family, n, m, s, seed)

let print_case (family, n, m, s, seed) =
  Printf.sprintf "(%s, n=%d, m=%d, s=%d, seed=%d)"
    (match family with `Er -> "er" | `Sf -> "sf")
    n m s seed

let graph_of_case (family, n, m, seed) =
  let rng = Scoll.Rng.create seed in
  match family with
  | `Er -> Sgraph.Gen.erdos_renyi_gnm rng ~n ~m:(min m (n * (n - 1) / 2))
  | `Sf -> Sgraph.Gen.barabasi_albert rng ~n ~m_attach:(min (n - 1) (1 + (m mod 3)))

(* Pick an effective edit against the dense mirror [adj]:
   [delete_bias]% of coin flips delete a live edge (when one exists). *)
let gen_step rng adj n ~delete_bias =
  let live = ref [] and free = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if adj.(u).(v) then live := (u, v) :: !live else free := (u, v) :: !free
    done
  done;
  let pick l = List.nth l (Scoll.Rng.int rng (List.length l)) in
  let deleting =
    match (!live, !free) with
    | [], _ -> false
    | _, [] -> true
    | _ -> Scoll.Rng.int rng 100 < delete_bias
  in
  if deleting then
    let u, v = pick !live in
    O.Delete (u, v)
  else
    let u, v = pick !free in
    O.Insert (u, v)

let apply_mirror adj e =
  let u, v = O.edit_endpoints e in
  let present = match e with O.Insert _ -> true | O.Delete _ -> false in
  adj.(u).(v) <- present;
  adj.(v).(u) <- present

let live_count adj n =
  let c = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if adj.(u).(v) then incr c
    done
  done;
  !c

let script_len rng = 50 + Scoll.Rng.int rng 11

(* sorted-list difference over Node_set.compare order *)
let rec sorted_diff a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | x :: ta, y :: tb ->
      let c = NS.compare x y in
      if c = 0 then sorted_diff ta tb
      else if c < 0 then x :: sorted_diff ta b
      else sorted_diff a tb

(* The headline: one long-lived overlay replays the script; at every
   prefix, incremental refresh (warm CS2PF oracle carried across steps,
   cold CS1, parallel) must equal full recomputation by CS2PF, PD and
   Parallel.enumerate — and the Overlay/compact edge counts must equal
   the live count. *)
let prop_refresh_matches_full =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"refresh == full re-enumeration at every script prefix"
       ~print:print_case arb_churn_case
       (fun (family, n, m, s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 17) in
         let len = script_len rng in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let nh = NH.create ~s g0 in
         let results = ref (E.sorted_results E.Cs2_pf g0 ~s) in
         let prev = ref g0 in
         let o = O.of_graph g0 in
         for step = 1 to len do
           let e = gen_step rng adj n ~delete_bias:45 in
           apply_mirror adj e;
           O.apply o [ e ];
           let g1 = O.compact o in
           let ctx what =
             Printf.sprintf "%s step %d (%s)" what step
               (Format.asprintf "%a" O.pp_edit e)
           in
           let live = live_count adj n in
           if O.m o <> live then
             QCheck2.Test.fail_reportf "%s: Overlay.m %d, live edges %d"
               (ctx "overlay m") (O.m o) live;
           if G.m g1 <> live then
             QCheck2.Test.fail_reportf "%s: compacted m %d, live edges %d"
               (ctx "compact m") (G.m g1) live;
           if O.epoch o <> step then
             QCheck2.Test.fail_reportf "%s: epoch %d after %d effective edits"
               (ctx "epoch") (O.epoch o) step;
           let full = E.sorted_results E.Cs2_pf g1 ~s in
           let full_pd = E.sorted_results E.Poly_delay g1 ~s in
           let full_par = Scliques_core.Parallel.enumerate ~workers:2 g1 ~s in
           if not (same_sets full full_pd) then
             ignore (show_mismatch (ctx "PD vs CS2PF") full full_pd);
           if not (same_sets full full_par) then
             ignore (show_mismatch (ctx "parallel vs CS2PF") full full_par);
           let touched = [ fst (O.edit_endpoints e); snd (O.edit_endpoints e) ] in
           let warm =
             E.refresh ~nh ~before:!prev ~after:g1 ~touched ~s ~prior:!results ()
           in
           let cold =
             E.refresh ~engine:(`Seq E.Cs1) ~before:!prev ~after:g1 ~touched ~s
               ~prior:!results ()
           in
           let par =
             E.refresh ~engine:(`Par (E.Cs2_p, 2)) ~before:!prev ~after:g1 ~touched
               ~s ~prior:!results ()
           in
           let par_pf =
             E.refresh ~engine:(`Par (E.Cs2_pf, 2)) ~before:!prev ~after:g1
               ~touched ~s ~prior:!results ()
           in
           if not (same_sets full warm.E.results) then
             ignore (show_mismatch (ctx "warm refresh") full warm.E.results);
           if not (same_sets full cold.E.results) then
             ignore (show_mismatch (ctx "cold CS1 refresh") full cold.E.results);
           if not (same_sets full par.E.results) then
             ignore (show_mismatch (ctx "parallel refresh") full par.E.results);
           if not (same_sets full par_pf.E.results) then
             ignore (show_mismatch (ctx "parallel CS2PF refresh") full par_pf.E.results);
           (* the reported delta must reconcile prior with the new answer *)
           if not (same_sets warm.E.added (sorted_diff warm.E.results !results))
           then
             ignore
               (show_mismatch (ctx "delta added")
                  (sorted_diff warm.E.results !results)
                  warm.E.added);
           if not (same_sets warm.E.removed (sorted_diff !results warm.E.results))
           then
             ignore
               (show_mismatch (ctx "delta removed")
                  (sorted_diff !results warm.E.results)
                  warm.E.removed);
           if NH.epoch nh <> step then
             QCheck2.Test.fail_reportf "%s: oracle epoch %d after %d refreshes"
               (ctx "oracle epoch") (NH.epoch nh) step;
           results := warm.E.results;
           prev := g1
         done;
         true))

(* Components agrees with BFS reachability at every prefix of a
   delete-heavy script (deletions split components). *)
let prop_components_track_churn =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"Components match BFS reachability under churn"
       ~print:print_case arb_churn_case
       (fun (family, n, m, _s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 23) in
         let len = script_len rng in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let o = O.of_graph g0 in
         for step = 1 to len do
           let e = gen_step rng adj n ~delete_bias:65 in
           apply_mirror adj e;
           O.apply o [ e ];
           let g1 = O.compact o in
           let labels, ncomp = Sgraph.Components.labels g1 in
           (* a node that no smaller node reaches starts a component *)
           let starts = Array.make n true in
           for u = 0 to n - 1 do
             for v = u + 1 to n - 1 do
               let by_labels = labels.(u) = labels.(v) in
               let by_bfs = Sgraph.Bfs.distance g1 u v >= 0 in
               if by_bfs then starts.(v) <- false;
               if by_labels <> by_bfs then
                 QCheck2.Test.fail_reportf "step %d: %d~%d labels=%b bfs=%b" step u v
                   by_labels by_bfs
             done
           done;
           let by_bfs = Array.fold_left (fun k s -> if s then k + 1 else k) 0 starts in
           if by_bfs <> ncomp then
             QCheck2.Test.fail_reportf "step %d: BFS sees %d components, labels %d" step
               by_bfs ncomp
         done;
         true))

(* Satellite: the overlay's merged row kernels agree with the compacted
   flat graph at every prefix — degree, row, mem_edge, fold_row. *)
let prop_overlay_kernels_match_compact =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15
       ~name:"overlay row kernels == compacted CSR at every prefix"
       ~print:print_case arb_churn_case
       (fun (family, n, m, _s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 31) in
         let len = script_len rng in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let o = O.of_graph g0 in
         for step = 1 to len do
           let e = gen_step rng adj n ~delete_bias:50 in
           apply_mirror adj e;
           O.apply o [ e ];
           let g1 = O.compact o in
           for v = 0 to n - 1 do
             let expect = G.neighbors g1 v in
             let got = O.row o v in
             if not (Array.length got = Array.length expect
                    && Array.for_all2 Int.equal got expect) then
               QCheck2.Test.fail_reportf "step %d: row %d mismatch" step v;
             if O.degree o v <> G.degree g1 v then
               QCheck2.Test.fail_reportf "step %d: degree %d mismatch" step v;
             let folded = O.fold_row (fun acc u -> acc + u) 0 o v in
             if folded <> Array.fold_left ( + ) 0 expect then
               QCheck2.Test.fail_reportf "step %d: fold_row %d mismatch" step v;
             for u = 0 to n - 1 do
               if O.mem_edge o v u <> G.mem_edge g1 v u then
                 QCheck2.Test.fail_reportf "step %d: mem_edge %d %d mismatch"
                   step v u
             done
           done;
           ignore (O.base o)
         done;
         true))

(* Satellite regression: a delete-only batch must leave m exactly at the
   live count and compact to a graph with no residue — not phantom
   zero-length rows miscounted into Graph.m. *)
let test_overlay_delete_only () =
  let g = Sgraph.Gen.barabasi_albert (Scoll.Rng.create 5) ~n:12 ~m_attach:2 in
  let o = O.of_graph g in
  let edges = G.edges g in
  List.iteri
    (fun i (u, v) ->
      Alcotest.(check bool) "delete effective" true (O.delete_edge o u v);
      let expect = G.m g - i - 1 in
      Alcotest.(check int) "overlay m tracks deletions" expect (O.m o);
      Alcotest.(check int) "compact m tracks deletions" expect (G.m (O.compact o)))
    edges;
  Alcotest.(check int) "all edges gone" 0 (O.m o);
  let c = O.compact o in
  Alcotest.(check int) "compacted n preserved" (G.n g) (G.n c);
  Alcotest.(check bool) "compacted equals empty graph" true
    (G.equal c (G.empty (G.n g)));
  Alcotest.(check int) "delta covers every base edge" (G.m g) (O.delta_size o)

let test_overlay_cancellation () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  let o = O.of_graph g in
  (* insert then delete a novel edge: no residue *)
  Alcotest.(check bool) "insert 0-3" true (O.insert_edge o 0 3);
  Alcotest.(check bool) "delete 0-3" true (O.delete_edge o 3 0);
  Alcotest.(check int) "delta empty after cancel" 0 (O.delta_size o);
  Alcotest.(check int) "m restored" 2 (O.m o);
  (* delete then re-insert a base edge: no residue either *)
  Alcotest.(check bool) "delete 0-1" true (O.delete_edge o 0 1);
  Alcotest.(check bool) "re-insert 0-1" true (O.insert_edge o 1 0);
  Alcotest.(check int) "delta empty again" 0 (O.delta_size o);
  Alcotest.(check bool) "round-trips to the base graph" true
    (G.equal g (O.compact o));
  Alcotest.(check int) "epoch counts the four effective edits" 4 (O.epoch o);
  (* no-ops: absent delete, present insert *)
  Alcotest.(check bool) "inserting a live edge is a no-op" false
    (O.insert_edge o 0 1);
  Alcotest.(check bool) "deleting an absent edge is a no-op" false
    (O.delete_edge o 0 2);
  Alcotest.(check int) "no-ops leave the epoch alone" 4 (O.epoch o);
  (* strict apply refuses ineffective edits *)
  Alcotest.check_raises "strict apply"
    (Invalid_argument "Overlay.apply: ineffective insert +0-1") (fun () ->
      O.apply o [ O.Insert (0, 1) ]);
  Alcotest.check_raises "self-loop refused"
    (Invalid_argument "Overlay.insert_edge: self-loop 2") (fun () ->
      ignore (O.insert_edge o 2 2))

(* Satellite: Lri_cache remove keeps the weight ledger exact and does not
   let a removed-then-re-added key be evicted on its orphaned queue slot. *)
let test_lri_remove_accounting () =
  let c = Scoll.Lri_cache.create ~weight:String.length ~capacity:4 () in
  Scoll.Lri_cache.add c 1 "aa";
  Scoll.Lri_cache.add c 2 "bbb";
  Alcotest.(check int) "weight sums" 5 (Scoll.Lri_cache.total_weight c);
  Scoll.Lri_cache.remove c 2;
  Alcotest.(check int) "weight drops with remove" 2
    (Scoll.Lri_cache.total_weight c);
  Alcotest.(check int) "length drops" 1 (Scoll.Lri_cache.length c);
  Scoll.Lri_cache.remove c 2;
  Alcotest.(check int) "double remove is a no-op" 2
    (Scoll.Lri_cache.total_weight c);
  Alcotest.(check int) "removals are not evictions" 0
    (Scoll.Lri_cache.stats c).Scoll.Lri_cache.evictions;
  let keys =
    List.sort Int.compare (Scoll.Lri_cache.fold (fun k _ acc -> k :: acc) c [])
  in
  Alcotest.(check (list int)) "fold sees live keys" [ 1 ] keys

let test_lri_readd_not_prematurely_evicted () =
  let c = Scoll.Lri_cache.create ~capacity:2 () in
  Scoll.Lri_cache.add c 1 "one";
  Scoll.Lri_cache.add c 2 "two";
  Scoll.Lri_cache.remove c 1;
  Scoll.Lri_cache.add c 1 "one again";
  (* eviction order is now 2 (oldest live) then 1; key 1's orphaned front
     slot must not count against its re-insertion *)
  Scoll.Lri_cache.add c 3 "three";
  Alcotest.(check bool) "re-added key survives" true (Scoll.Lri_cache.mem c 1);
  Alcotest.(check bool) "oldest live key evicted" false (Scoll.Lri_cache.mem c 2);
  Alcotest.(check bool) "new key present" true (Scoll.Lri_cache.mem c 3);
  Alcotest.(check int) "exactly one eviction" 1
    (Scoll.Lri_cache.stats c).Scoll.Lri_cache.evictions

(* Satellite: epoch-based invalidation drops exactly the stale N^s balls
   and their byte weight; distant balls stay warm. Path 0-1-...-9, s=2,
   deleting edge 0-1: the closed radius-2 balls of {0,1} in either graph
   cover {0,1,2,3}, so exactly four entries (and their weight) go. *)
let test_nh_invalidate_accounting () =
  let n = 10 in
  let path k = List.init (k - 1) (fun i -> (i, i + 1)) in
  let before = G.of_edges ~n (path n) in
  let after = D.apply before [ O.Delete (0, 1) ] in
  let s = 2 in
  let nh = NH.create ~s before in
  G.iter_nodes (fun v -> ignore (NH.ball nh v)) before;
  let weight_of g v =
    (8 * NS.cardinal (Sgraph.Bfs.ball g v ~radius:s)) + 32
  in
  let total g nodes =
    List.fold_left (fun acc v -> acc + weight_of g v) 0 nodes
  in
  Alcotest.(check int) "initial weight ledger exact"
    (total before (List.init n Fun.id))
    (NH.cache_bytes nh);
  let misses0 = (NH.cache_stats nh).Scoll.Lri_cache.misses in
  NH.invalidate nh ~after ~touched:[ 0; 1 ];
  Alcotest.(check int) "epoch bumped" 1 (NH.epoch nh);
  Alcotest.(check int) "only the stale balls' weight dropped"
    (total before [ 4; 5; 6; 7; 8; 9 ])
    (NH.cache_bytes nh);
  (* re-query everything on the after graph: exactly the four dropped
     keys miss; the six survivors hit warm *)
  G.iter_nodes
    (fun v ->
      let b = NH.ball nh v in
      Alcotest.(check bool)
        (Printf.sprintf "ball %d correct after invalidation" v)
        true
        (NS.equal b (Sgraph.Bfs.ball after v ~radius:s)))
    after;
  let misses1 = (NH.cache_stats nh).Scoll.Lri_cache.misses in
  Alcotest.(check int) "exactly the stale balls recomputed" 4
    (misses1 - misses0);
  Alcotest.(check int) "refilled ledger exact"
    (total after (List.init n Fun.id))
    (NH.cache_bytes nh)

let edit_equal a b =
  match (a, b) with
  | O.Insert (u, v), O.Insert (u', v') | O.Delete (u, v), O.Delete (u', v') ->
      u = u' && v = v'
  | _ -> false

let edit = Alcotest.testable O.pp_edit edit_equal

(* SGRDIFF1: save/load round trip, between/apply as inverse, and the
   refusal contract — a prefix cut at a record boundary is a valid
   shorter diff, every other truncation and any corrupted byte is
   refused with a Parse_error, never silently tolerated. *)
let prop_diff_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"SGRDIFF1 round trip and between/apply"
       ~print:print_case arb_churn_case
       (fun (family, n, m, _s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 41) in
         let len = 1 + Scoll.Rng.int rng 20 in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let o = O.of_graph g0 in
         let script =
           List.init len (fun _ ->
               let e = gen_step rng adj n ~delete_bias:45 in
               apply_mirror adj e;
               O.apply o [ e ];
               e)
         in
         let g1 = O.compact o in
         let path = Filename.temp_file "churn" ".diff" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             D.save ~base_n:(G.n g0) ~base_m:(G.m g0) script path;
             let h, loaded = D.load path in
             Alcotest.(check int) "header n" (G.n g0) h.D.base_n;
             Alcotest.(check int) "header m" (G.m g0) h.D.base_m;
             Alcotest.(check (list edit)) "script round-trips" script loaded;
             D.check_base ~file:path h g0;
             Alcotest.(check bool) "replay reaches the mutated graph" true
               (G.equal g1 (D.apply g0 script));
             (* between is a strict script from g0 to g1 *)
             let s2 = D.between g0 g1 in
             Alcotest.(check bool) "between/apply is the identity" true
               (G.equal g1 (D.apply g0 s2));
             Alcotest.(check bool) "between of equal graphs is empty" true
               (match D.between g1 g1 with [] -> true | _ -> false));
         true))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let test_diff_torn_tail_refused () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3) ] in
  let script = [ O.Insert (0, 3); O.Delete (1, 2); O.Insert (4, 5) ] in
  let path = Filename.temp_file "churn" ".diff" in
  let torn = path ^ ".torn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists torn then Sys.remove torn)
    (fun () ->
      D.save ~base_n:(G.n g) ~base_m:(G.m g) script path;
      let bytes = read_file path in
      let total = String.length bytes in
      (* magic 8 + header 16+4, then 3 records of 17+4 *)
      Alcotest.(check int) "file size" (28 + (3 * 21)) total;
      for len = 0 to total - 1 do
        write_file torn (String.sub bytes 0 len);
        let boundary = len >= 28 && (len - 28) mod 21 = 0 in
        match D.load torn with
        | h, edits ->
            if not boundary then
              Alcotest.failf "truncation to %d bytes was not refused" len;
            Alcotest.(check int) "prefix header intact" (G.n g) h.D.base_n;
            Alcotest.(check int)
              (Printf.sprintf "prefix at %d bytes holds %d edits" len
                 ((len - 28) / 21))
              ((len - 28) / 21)
              (List.length edits)
        | exception Sgraph.Io_error.Parse_error _ ->
            if boundary then
              Alcotest.failf "record-boundary prefix of %d bytes was refused" len
      done;
      (* flip one byte inside the last record's payload: CRC refusal *)
      let corrupt = Bytes.of_string bytes in
      let off = 28 + (2 * 21) + 3 in
      Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x41));
      write_file torn (Bytes.to_string corrupt);
      (match D.load torn with
      | _ -> Alcotest.fail "corrupted record was not refused"
      | exception Sgraph.Io_error.Parse_error _ -> ());
      (* base mismatch is refused up front *)
      let h, _ = D.load path in
      match D.check_base ~file:path h (G.empty 6) with
      | () -> Alcotest.fail "base mismatch was not refused"
      | exception Sgraph.Io_error.Parse_error _ -> ())

(* the wire path this PR adds: to_string/of_string are the same format
   (and the same refusal discipline) as save/load, byte for byte — one
   decoder guards disk, journal and socket alike *)
let test_diff_string_codec () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3) ] in
  let script = [ O.Insert (0, 3); O.Delete (1, 2); O.Insert (4, 5) ] in
  let image = D.to_string ~base_n:(G.n g) ~base_m:(G.m g) script in
  let path = Filename.temp_file "churn" ".diff" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      D.save ~base_n:(G.n g) ~base_m:(G.m g) script path;
      Alcotest.(check string) "to_string emits save's exact bytes"
        (read_file path) image);
  let h, loaded = D.of_string ~file:"<mem>" image in
  Alcotest.(check int) "header n" (G.n g) h.D.base_n;
  Alcotest.(check int) "header m" (G.m g) h.D.base_m;
  Alcotest.(check (list edit)) "script round-trips" script loaded;
  Alcotest.(check string) "encode_header/encode_edit compose to the image"
    image
    (String.concat ""
       (D.encode_header ~base_n:(G.n g) ~base_m:(G.m g)
       :: List.map D.encode_edit script));
  (* every strict-prefix truncation: a cut at a record boundary is a
     valid shorter script, every other length is refused *)
  let total = String.length image in
  for len = 0 to total - 1 do
    let boundary = len >= 28 && (len - 28) mod 21 = 0 in
    match D.of_string ~file:"<mem>" (String.sub image 0 len) with
    | _, edits ->
        if not boundary then
          Alcotest.failf "truncation to %d bytes was not refused" len
        else
          Alcotest.(check int)
            (Printf.sprintf "prefix at %d bytes" len)
            ((len - 28) / 21)
            (List.length edits)
    | exception Sgraph.Io_error.Parse_error _ ->
        if boundary then
          Alcotest.failf "record-boundary prefix of %d bytes was refused" len
  done;
  (* every single-byte flip lands in the magic, a CRC, or CRC'd payload:
     all refused with a typed error, none decoded differently *)
  for off = 0 to total - 1 do
    let b = Bytes.of_string image in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
    match D.of_string ~file:"<mem>" (Bytes.to_string b) with
    | _ -> Alcotest.failf "flip at byte %d was not refused" off
    | exception Sgraph.Io_error.Parse_error _ -> ()
  done;
  (* trailing garbage is a torn tail, not ignorable slack *)
  match D.of_string ~file:"<mem>" (image ^ "x") with
  | _ -> Alcotest.fail "trailing garbage accepted"
  | exception Sgraph.Io_error.Parse_error _ -> ()

let test_diff_writer_journal () =
  let g = G.of_edges ~n:5 [ (0, 1) ] in
  let path = Filename.temp_file "churn" ".diff" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = D.open_writer ~base_n:(G.n g) ~base_m:(G.m g) path in
      D.write_edit w (O.Insert (1, 2));
      D.flush w;
      (* a reader between flushes sees a valid shorter journal *)
      let _, edits = D.load path in
      Alcotest.(check (list edit)) "first flush visible" [ O.Insert (1, 2) ] edits;
      D.write_edit w (O.Delete (0, 1));
      D.close w;
      let _, edits = D.load path in
      Alcotest.(check (list edit)) "full journal after close"
        [ O.Insert (1, 2); O.Delete (0, 1) ]
        edits;
      Alcotest.(check bool) "journal replays" true
        (G.equal
           (D.apply g [ O.Insert (1, 2); O.Delete (0, 1) ])
           (G.of_edges ~n:5 [ (1, 2) ])))

(* refresh argument validation *)
let test_refresh_validation () =
  let g = G.of_edges ~n:4 [ (0, 1) ] in
  let prior = E.sorted_results E.Cs2_pf g ~s:2 in
  let check_invalid name f =
    match f () with
    | (_ : E.refresh_delta) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  check_invalid "PD engine" (fun () ->
      E.refresh ~engine:(`Seq E.Poly_delay) ~before:g ~after:g ~touched:[ 0 ] ~s:2
        ~prior ());
  check_invalid "brute engine" (fun () ->
      E.refresh ~engine:(`Seq E.Brute) ~before:g ~after:g ~touched:[ 0 ] ~s:2
        ~prior ());
  check_invalid "PD on workers" (fun () ->
      E.refresh ~engine:(`Par (E.Poly_delay, 2)) ~before:g ~after:g ~touched:[ 0 ]
        ~s:2 ~prior ());
  check_invalid "no worker" (fun () ->
      E.refresh ~engine:(`Par (E.Cs2_pf, 0)) ~before:g ~after:g ~touched:[ 0 ] ~s:2
        ~prior ());
  check_invalid "node count change" (fun () ->
      E.refresh ~before:g ~after:(G.empty 5) ~touched:[ 0 ] ~s:2 ~prior ());
  check_invalid "touched out of range" (fun () ->
      E.refresh ~before:g ~after:g ~touched:[ 4 ] ~s:2 ~prior ());
  (* an edit script that does not account for every touched endpoint *)
  let g' = D.apply g [ O.Insert (2, 3) ] in
  check_invalid "edits disagree with touched" (fun () ->
      E.refresh ~edits:[ O.Insert (2, 3) ] ~before:g ~after:g' ~touched:[ 0; 1 ]
        ~s:2
        ~prior ());
  (* empty batch: the prior answer comes back verbatim *)
  let d = E.refresh ~before:g ~after:g ~touched:[] ~s:2 ~prior () in
  Alcotest.(check bool) "empty batch keeps the answer" true
    (same_sets prior d.E.results);
  Alcotest.(check int) "empty batch reruns nothing" 0 d.E.roots_rerun;
  Alcotest.(check int) "empty batch skips nothing" 0 d.E.roots_skipped;
  Alcotest.(check (list (pair int int))) "empty batch digests nothing" []
    d.E.root_fingerprints

(* The sorted-input contract on [prior] is debug-asserted, so a producer
   handing refresh an unsorted answer dies loudly in dev builds instead
   of silently splicing results into the wrong place. (With assertions
   compiled out the check vanishes — the contract is then on the caller,
   which is why every in-tree producer already sorts.) *)
let test_refresh_unsorted_prior_asserted () =
  let g = G.of_edges ~n:5 [ (0, 1); (2, 3); (3, 4) ] in
  let prior = E.sorted_results E.Cs2_pf g ~s:2 in
  Alcotest.(check bool) "case needs two results" true (List.length prior >= 2);
  let unsorted = List.rev prior in
  match
    E.refresh ~before:g ~after:g ~touched:[ 0 ] ~s:2 ~prior:unsorted ()
  with
  | (_ : E.refresh_delta) -> () (* assertions compiled out: caller's contract *)
  | exception Assert_failure _ -> ()

(* ------------------------------------------------------------------ *)
(* SCLQIDX1: the persistent root→results sidecar                       *)

(* Enumerate a small graph, stream it, index it: every root's extent
   must point at exactly its own records, fingerprints must match the
   live digest, and the codec/save/load must round-trip. *)
let test_index_build_roundtrip () =
  let g = G.of_edges ~n:7 [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let s = 2 in
  let results = E.sorted_results E.Cs2_pf g ~s in
  let path = Filename.temp_file "churn" ".results" in
  let side = RI.path_for path in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists side then Sys.remove side)
    (fun () ->
      let w = RS.open_writer path in
      List.iter (RS.write_set w) results;
      RS.close w;
      let idx = RI.build ~s ~n:(G.n g) ~fingerprint:(NH.root_fingerprint ~s g) path in
      Alcotest.(check string) "sidecar convention" (path ^ ".idx") side;
      Alcotest.(check int) "one entry per root" (G.n g) (RI.n idx);
      Alcotest.(check int) "stream length recorded"
        (String.length (read_file path))
        idx.RI.stream_len;
      Alcotest.(check int) "s recorded" s idx.RI.s;
      (* extents tile the stream after the magic, counts sum to the answer *)
      let counted =
        Array.fold_left (fun acc e -> acc + e.RI.count) 0 idx.RI.entries
      in
      Alcotest.(check int) "counts sum to the answer" (List.length results)
        counted;
      let extent_sum =
        Array.fold_left (fun acc e -> acc + e.RI.extent) 0 idx.RI.entries
      in
      Alcotest.(check int) "extents tile the records"
        (idx.RI.stream_len - String.length RS.magic)
        extent_sum;
      (* each root's extent decodes to exactly that root's results *)
      let bytes = read_file path in
      Array.iteri
        (fun root e ->
          let mine =
            List.filter (fun c -> NS.min_elt c = root) results
          in
          Alcotest.(check int)
            (Printf.sprintf "root %d count" root)
            (List.length mine) e.RI.count;
          Alcotest.(check int)
            (Printf.sprintf "root %d fingerprint" root)
            (NH.root_fingerprint ~s g root)
            e.RI.fingerprint;
          let slice = String.sub bytes e.RI.offset e.RI.extent in
          let expect =
            String.concat "" (List.map (fun c -> RS.encode_record (RS.encode_set c)) mine)
          in
          Alcotest.(check string)
            (Printf.sprintf "root %d extent bytes" root)
            expect slice)
        idx.RI.entries;
      (* codec and file round trips *)
      let image = RI.to_string idx in
      let idx2 = RI.of_string ~file:"<mem>" image in
      Alcotest.(check string) "of_string/to_string round-trips" image
        (RI.to_string idx2);
      RI.save idx side;
      let idx3 = RI.load side in
      Alcotest.(check string) "save/load round-trips" image (RI.to_string idx3))

(* A parallel stream commits roots in retirement order, not ascending —
   build must accept any root-contiguous order and record true offsets. *)
let test_index_build_unordered_stream () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let s = 2 in
  let results = E.sorted_results E.Cs2_pf g ~s in
  let by_root r = List.filter (fun c -> NS.min_elt c = r) results in
  let path = Filename.temp_file "churn" ".results" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = RS.open_writer path in
      (* retire roots out of order, each root's records contiguous *)
      List.iter
        (fun r -> List.iter (RS.write_set w) (by_root r))
        [ 3; 0; 4; 1; 5; 2 ];
      RS.close w;
      let idx = RI.build ~s ~n:(G.n g) ~fingerprint:(NH.root_fingerprint ~s g) path in
      let bytes = read_file path in
      Array.iteri
        (fun root e ->
          let expect =
            String.concat ""
              (List.map (fun c -> RS.encode_record (RS.encode_set c)) (by_root root))
          in
          Alcotest.(check string)
            (Printf.sprintf "root %d extent under retirement order" root)
            expect
            (String.sub bytes e.RI.offset e.RI.extent))
        idx.RI.entries;
      (* interleaving a root's records (not root-grouped) is refused *)
      let w = RS.open_writer path in
      (match results with
      | a :: b :: _ when NS.min_elt a <> NS.min_elt b ->
          RS.write_set w a;
          RS.write_set w b;
          RS.write_set w a
      | _ -> Alcotest.fail "case needs two roots");
      RS.close w;
      match RI.build ~s ~n:(G.n g) ~fingerprint:(fun _ -> 0) path with
      | (_ : RI.t) -> Alcotest.fail "non-root-grouped stream indexed"
      | exception Sgraph.Io_error.Parse_error _ -> ())

(* The refusal contract, mirroring the SGRDIFF1 suite — but stricter:
   the index is derived data with an up-front entry count, so unlike the
   diff there are NO valid prefixes. Every truncation, every byte flip
   and any trailing garbage must raise Parse_error. *)
let test_index_codec_refusals () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let s = 2 in
  let results = E.sorted_results E.Cs2_pf g ~s in
  let path = Filename.temp_file "churn" ".results" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = RS.open_writer path in
      List.iter (RS.write_set w) results;
      RS.close w;
      let idx = RI.build ~s ~n:(G.n g) ~fingerprint:(NH.root_fingerprint ~s g) path in
      let image = RI.to_string idx in
      let total = String.length image in
      for len = 0 to total - 1 do
        match RI.of_string ~file:"<mem>" (String.sub image 0 len) with
        | (_ : RI.t) -> Alcotest.failf "truncation to %d bytes was not refused" len
        | exception Sgraph.Io_error.Parse_error _ -> ()
      done;
      for off = 0 to total - 1 do
        let b = Bytes.of_string image in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
        match RI.of_string ~file:"<mem>" (Bytes.to_string b) with
        | (_ : RI.t) -> Alcotest.failf "flip at byte %d was not refused" off
        | exception Sgraph.Io_error.Parse_error _ -> ()
      done;
      match RI.of_string ~file:"<mem>" (image ^ "x") with
      | (_ : RI.t) -> Alcotest.fail "trailing garbage accepted"
      | exception Sgraph.Io_error.Parse_error _ -> ())

(* Splice differential: refresh against stored fingerprints, patch only
   the changed roots into the stream, and the result must decode to the
   full after-answer — with every index fingerprint (patched or copied)
   equal to the live digest on the after-graph, which is exactly the
   ρ_s ≤ 2s-1 soundness argument the sidecar rests on, and the whole
   sidecar equal to one indexed afresh over the spliced stream. *)
let test_index_splice_differential () =
  let g0 =
    Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create 97) ~n:24 ~m:40
  in
  let s = 2 in
  let prior = E.sorted_results E.Cs2_pf g0 ~s in
  let path = Filename.temp_file "churn" ".results" in
  let out = path ^ ".spliced" in
  let cleanup p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      List.iter cleanup [ path; RI.path_for path; out; RI.path_for out ])
    (fun () ->
      let w = RS.open_writer path in
      List.iter (RS.write_set w) prior;
      RS.close w;
      let idx = RI.build ~s ~n:(G.n g0) ~fingerprint:(NH.root_fingerprint ~s g0) path in
      RI.save idx (RI.path_for path);
      (* one effective edit, refreshed off the stored fingerprints only *)
      let e =
        if G.mem_edge g0 0 1 then O.Delete (0, 1) else O.Insert (0, 1)
      in
      let g1 = D.apply g0 [ e ] in
      let d =
        E.refresh
          ~prior_fingerprint:(fun r -> Some idx.RI.entries.(r).RI.fingerprint)
          ~edits:[ e ] ~before:g0 ~after:g1 ~touched:[ 0; 1 ] ~s ~prior ()
      in
      let full = E.sorted_results E.Cs2_pf g1 ~s in
      if not (same_sets full d.E.results) then
        Alcotest.fail "refresh off stored fingerprints diverged";
      (* patch exactly the re-run roots, as the CLI does *)
      let rerun = Hashtbl.create 16 in
      List.iter
        (fun (root, fp) ->
          if idx.RI.entries.(root).RI.fingerprint <> fp then
            Hashtbl.replace rerun root (fp, ref []))
        d.E.root_fingerprints;
      List.iter
        (fun c ->
          match Hashtbl.find_opt rerun (NS.min_elt c) with
          | Some (_, acc) -> acc := c :: !acc
          | None -> ())
        d.E.results;
      let patched =
        Hashtbl.fold
          (fun root (fp, acc) l -> (root, fp, List.rev !acc) :: l)
          rerun []
      in
      Alcotest.(check int) "patched roots = roots whose digest moved"
        (Hashtbl.length rerun)
        (List.length patched);
      let idx', stats = RI.splice ~old_stream:path ~index:idx ~patched ~out in
      Alcotest.(check int) "stats count the patch" (List.length patched)
        stats.RI.roots_patched;
      Alcotest.(check bool) "unchanged roots were copied, not re-encoded" true
        (stats.RI.copied_bytes > 0);
      (* the spliced stream IS the after-answer *)
      let decoded, tail = RS.read_results out in
      (match tail with
      | `Clean -> ()
      | `Torn -> Alcotest.fail "splice left a torn tail");
      if not (same_sets full decoded) then
        ignore (show_mismatch "spliced stream" full decoded);
      Alcotest.(check int) "returned index matches the new stream"
        (String.length (read_file out))
        idx'.RI.stream_len;
      (* the saved sidecar loads and its digests are live on the after graph *)
      let idx'' = RI.load (RI.path_for out) in
      Alcotest.(check string) "splice saved the index it returned"
        (RI.to_string idx') (RI.to_string idx'');
      Array.iteri
        (fun root e ->
          Alcotest.(check int)
            (Printf.sprintf "root %d digest live on after-graph" root)
            (NH.root_fingerprint ~s g1 root)
            e.RI.fingerprint)
        idx'.RI.entries;
      (* ... and it is the sidecar a fresh index of the spliced stream
         gives: every entry's fingerprint, offset, extent and count *)
      let rebuilt =
        RI.build ~s ~n:(G.n g1) ~fingerprint:(NH.root_fingerprint ~s g1) out
      in
      Alcotest.(check int) "stream_len = rebuilt" rebuilt.RI.stream_len
        idx''.RI.stream_len;
      Alcotest.(check int) "entries = rebuilt"
        (Array.length rebuilt.RI.entries)
        (Array.length idx''.RI.entries);
      let fields (e : RI.entry) = [ e.fingerprint; e.offset; e.extent; e.count ] in
      Array.iteri
        (fun root e ->
          Alcotest.(check (list int))
            (Printf.sprintf "root %d entry = rebuilt" root)
            (fields rebuilt.RI.entries.(root))
            (fields e))
        idx''.RI.entries;
      (* a stale index (stream changed size underneath it) is refused *)
      write_file path (read_file path ^ RS.encode_record (RS.encode_set (NS.of_list [ 0 ])));
      match RI.splice ~old_stream:path ~index:idx ~patched ~out with
      | (_ : RI.t * RI.splice_stats) -> Alcotest.fail "stale index spliced"
      | exception Sgraph.Io_error.Parse_error _ -> ())

(* The affected roots of an edit script, from their definition and in
   their own graphs: each edit's D is the radius-(s-1) balls of its
   endpoints in the graphs just before and just after it, and its roots
   are the radius-s balls of D in both. *)
let affected_roots ~before ~s edits =
  let ball g srcs radius = Sgraph.Bfs.ball_multi g ~srcs ~radius in
  snd
    (List.fold_left
       (fun (g, acc) e ->
         let g' = D.apply g [ e ] in
         let u, v = O.edit_endpoints e in
         let d = NS.to_list (NS.union (ball g [ u; v ] (s - 1)) (ball g' [ u; v ] (s - 1))) in
         (g', NS.union acc (NS.union (ball g d s) (ball g' d s))))
       (before, NS.empty) edits)

(* The reference gate: every affected root is digested on both graphs,
   and the ones whose digest moved re-run on [after]. Returns the
   answer, the re-run count and the skip count. *)
let reference_gate ~before ~after ~s ~prior affected =
  let moved =
    NS.filter
      (fun r -> NH.root_fingerprint ~s before r <> NH.root_fingerprint ~s after r)
      affected
  in
  let fresh = ref [] in
  let (_ : E.run_report) =
    E.run ~roots:(NS.to_list moved) E.Cs2_pf after ~s (fun c -> fresh := c :: !fresh)
  in
  let kept = List.filter (fun c -> not (NS.mem (NS.min_elt c) moved)) prior in
  ( List.sort NS.compare (kept @ !fresh),
    NS.cardinal moved,
    NS.cardinal affected - NS.cardinal moved )

(* The tentpole property: batched refresh with computed and with stored
   digests is bit-identical to full re-enumeration at every script
   prefix — and the gate partitions the affected roots, as their
   definition gives them, into re-run and skipped. It digests exactly
   the affected roots within rho_s of a touched node, and decides as the
   reference gate that digests every affected root. *)
let prop_batch_fingerprint_refresh =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:6
       ~name:"batched fingerprint refresh == full at every prefix"
       ~print:print_case arb_churn_case
       (fun (family, n, m, s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 71) in
         let steps = 12 + Scoll.Rng.int rng 5 in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let results = ref (E.sorted_results E.Cs2_pf g0 ~s) in
         let prev = ref g0 in
         for step = 1 to steps do
           (* a batch of 1–3 effective edits through one overlay *)
           let o = O.of_graph !prev in
           let k = 1 + Scoll.Rng.int rng 3 in
           let edits =
             List.init k (fun _ ->
                 let e = gen_step rng adj n ~delete_bias:45 in
                 apply_mirror adj e;
                 O.apply o [ e ];
                 e)
           in
           let g1 = O.compact o in
           let touched = O.touched edits in
           let full = E.sorted_results E.Cs2_pf g1 ~s in
           let ctx what = Printf.sprintf "%s step %d (batch %d)" what step k in
           let fp =
             E.refresh ~edits ~before:!prev ~after:g1 ~touched ~s
               ~prior:!results ()
           in
           let stored =
             E.refresh ~edits
               ~prior_fingerprint:(fun r ->
                 Some (NH.root_fingerprint ~s !prev r))
               ~before:!prev ~after:g1 ~touched ~s ~prior:!results ()
           in
           let blanket =
             E.refresh ~before:!prev ~after:g1 ~touched ~s ~prior:!results ()
           in
           if not (same_sets full fp.E.results) then
             ignore (show_mismatch (ctx "fingerprinted refresh") full fp.E.results);
           if not (same_sets full stored.E.results) then
             ignore (show_mismatch (ctx "stored-digest refresh") full stored.E.results);
           if not (same_sets full blanket.E.results) then
             ignore (show_mismatch (ctx "blanket refresh") full blanket.E.results);
           (* the gate partitions the affected set, never grows it *)
           let affected = affected_roots ~before:!prev ~s edits in
           if fp.E.roots_rerun + fp.E.roots_skipped <> NS.cardinal affected then
             QCheck2.Test.fail_reportf
               "%s: gate re-ran %d + skipped %d but the affected set holds %d"
               (ctx "gate ledger") fp.E.roots_rerun fp.E.roots_skipped
               (NS.cardinal affected);
           if stored.E.roots_rerun <> fp.E.roots_rerun then
             QCheck2.Test.fail_reportf
               "%s: stored digests re-ran %d roots, computed digests %d"
               (ctx "stored digests") stored.E.roots_rerun fp.E.roots_rerun;
           (* per-edit locality never widens the blanket affected set *)
           if NS.cardinal affected > blanket.E.roots_rerun + blanket.E.roots_skipped
           then
             QCheck2.Test.fail_reportf
               "%s: per-edit D has %d roots, blanket bound %d" (ctx "locality")
               (NS.cardinal affected)
               (blanket.E.roots_rerun + blanket.E.roots_skipped);
           (* the digests refresh reports are the after-graph's, ascending *)
           let rec ascending = function
             | (a, _) :: ((b, _) :: _ as tl) -> a < b && ascending tl
             | _ -> true
           in
           if not (ascending fp.E.root_fingerprints) then
             QCheck2.Test.fail_reportf "%s: root_fingerprints not ascending"
               (ctx "digest order");
           List.iter
             (fun (root, digest) ->
               if digest <> NH.root_fingerprint ~s g1 root then
                 QCheck2.Test.fail_reportf
                   "%s: root %d digest is not the after-graph's"
                   (ctx "digest value") root)
             fp.E.root_fingerprints;
           (* digested: exactly the affected roots within rho_s of a
              touched node in either graph; every other affected root
              has the same digest on both graphs *)
           let radius = NH.fingerprint_radius ~s in
           let near =
             NS.union
               (Sgraph.Bfs.ball_multi !prev ~srcs:touched ~radius)
               (Sgraph.Bfs.ball_multi g1 ~srcs:touched ~radius)
           in
           if
             not
               (List.equal Int.equal
                  (List.map fst fp.E.root_fingerprints)
                  (NS.to_list (NS.inter affected near)))
           then
             QCheck2.Test.fail_reportf "%s: %d digests reported, %d affected roots near the edit"
               (ctx "digest set")
               (List.length fp.E.root_fingerprints)
               (NS.cardinal (NS.inter affected near));
           NS.iter
             (fun root ->
               if NH.root_fingerprint ~s !prev root <> NH.root_fingerprint ~s g1 root then
                 QCheck2.Test.fail_reportf "%s: root %d, beyond rho_s, changed its digest"
                   (ctx "far digest") root)
             (NS.diff affected near);
           let ref_results, ref_rerun, ref_skipped =
             reference_gate ~before:!prev ~after:g1 ~s ~prior:!results affected
           in
           if not (same_sets ref_results fp.E.results) then
             ignore (show_mismatch (ctx "reference gate") ref_results fp.E.results);
           if ref_rerun <> fp.E.roots_rerun || ref_skipped <> fp.E.roots_skipped then
             QCheck2.Test.fail_reportf
               "%s: reference gate re-ran %d and skipped %d, refresh %d and %d"
               (ctx "reference gate") ref_rerun ref_skipped fp.E.roots_rerun
               fp.E.roots_skipped;
           results := fp.E.results;
           prev := g1
         done;
         true))

(* One oracle serves refresh's gate and re-run: the delta must not depend
   on whose oracle that is. A caller oracle carried warm across the
   script, refresh's own, and one whose cache holds nothing give equal
   deltas at every step, digests included. *)
let prop_refresh_caller_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"refresh delta equal with and without caller nh"
       ~print:print_case arb_churn_case
       (fun (family, n, m, s, seed) ->
         let g0 = graph_of_case (family, n, m, seed) in
         let rng = Scoll.Rng.create (seed + 29) in
         let adj = Array.init n (fun u -> Array.init n (G.mem_edge g0 u)) in
         let nh = NH.create ~s g0 in
         let results = ref (E.sorted_results E.Cs2_pf g0 ~s) in
         let prev = ref g0 in
         for step = 1 to 20 do
           let e = gen_step rng adj n ~delete_bias:45 in
           apply_mirror adj e;
           let g1 = Sgraph.Diff.apply !prev [ e ] in
           let touched = O.touched [ e ] in
           let refresh ?nh ?cache_capacity ?engine () =
             E.refresh ?nh ?cache_capacity ?engine ~edits:[ e ] ~before:!prev ~after:g1
               ~touched ~s ~prior:!results ()
           in
           let own = refresh () in
           let equal what (d : E.refresh_delta) =
             if
               not
                 (same_sets own.E.results d.E.results
                 && same_sets own.E.added d.E.added
                 && same_sets own.E.removed d.E.removed
                 && own.E.roots_rerun = d.E.roots_rerun
                 && own.E.roots_skipped = d.E.roots_skipped
                 && List.equal
                      (fun (r, f) (r', f') -> r = r' && f = f')
                      own.E.root_fingerprints d.E.root_fingerprints)
             then QCheck2.Test.fail_reportf "step %d: %s delta differs" step what
           in
           equal "caller-oracle" (refresh ~nh ());
           equal "uncached" (refresh ~cache_capacity:0 ());
           equal "parallel" (refresh ~engine:(`Par (E.Cs2_p, 2)) ());
           equal "parallel CS2PF" (refresh ~engine:(`Par (E.Cs2_pf, 2)) ());
           results := own.E.results;
           prev := g1
         done;
         true))

let suites =
  [
    ( "churn",
      [
        prop_refresh_matches_full;
        prop_components_track_churn;
        prop_overlay_kernels_match_compact;
        prop_diff_roundtrip;
        Alcotest.test_case "overlay delete-only batch" `Quick
          test_overlay_delete_only;
        Alcotest.test_case "overlay edit cancellation and strictness" `Quick
          test_overlay_cancellation;
        Alcotest.test_case "lri remove keeps the weight ledger" `Quick
          test_lri_remove_accounting;
        Alcotest.test_case "lri re-added key not prematurely evicted" `Quick
          test_lri_readd_not_prematurely_evicted;
        Alcotest.test_case "neighborhood invalidation accounting" `Quick
          test_nh_invalidate_accounting;
        Alcotest.test_case "SGRDIFF1 in-memory codec (wire path)" `Quick
          test_diff_string_codec;
        Alcotest.test_case "SGRDIFF1 torn tail refused" `Quick
          test_diff_torn_tail_refused;
        Alcotest.test_case "SGRDIFF1 journal writer" `Quick
          test_diff_writer_journal;
        Alcotest.test_case "refresh argument validation" `Quick
          test_refresh_validation;
        Alcotest.test_case "refresh unsorted prior debug-asserted" `Quick
          test_refresh_unsorted_prior_asserted;
        prop_batch_fingerprint_refresh;
        Alcotest.test_case "SCLQIDX1 build and round trip" `Quick
          test_index_build_roundtrip;
        Alcotest.test_case "SCLQIDX1 retirement-order stream" `Quick
          test_index_build_unordered_stream;
        Alcotest.test_case "SCLQIDX1 refuses all corruption" `Quick
          test_index_codec_refusals;
        Alcotest.test_case "SCLQIDX1 splice differential" `Quick
          test_index_splice_differential;
        prop_refresh_caller_oracle;
      ] );
  ]
