(* Bechamel micro-benchmarks: one Test.make per table/figure, run on
   reduced instances so the statistical sampler can afford many runs.
   These complement the paper-shaped tables of Experiments with properly
   sampled per-operation costs. *)

open Bechamel

module E = Scliques_core.Enumerate

let micro_quota = 20 (* results per micro run *)

let first_n alg g ~s () = ignore (E.first_n alg g ~s micro_quota)

let micro_er () = Workloads.er ~n:250 ~avg_degree:8.

let micro_sf () = Workloads.sf ~n:250 ~avg_degree:8.

let micro_dense () = Workloads.er ~n:200 ~avg_degree:16.

(* s = 3 balls cover most of a 250-node graph, so the s=3 micro tests get
   their own smaller instances to keep one run under the sampling quota *)
let micro_er_s3 () = Workloads.er ~n:100 ~avg_degree:6.

let micro_sf_s3 () = Workloads.sf ~n:100 ~avg_degree:6.

(* List-vs-bitset kernel pairs, each shaped like a real hot path: the
   bitset side must be no slower than the sorted-merge baseline it
   replaced (EXPERIMENTS.md records the measured margins). Balls are
   materialized once, outside the staged closures. *)
let kernel_tests () =
  let module NS = Sgraph.Node_set in
  let module NH = Scliques_core.Neighborhood in
  let g = Workloads.er ~n:1000 ~avg_degree:12. in
  let nh = NH.create ~s:2 g in
  let p = NH.ball nh 0 and b = NH.ball nh 2 in
  (* a C set shaped like a real carve set: ball members, so neighbor rows
     overlap heavily *)
  let take k s = NS.of_list (List.filteri (fun i _ -> i < k) (NS.to_list s)) in
  let c_big = take 32 p in
  (* feasibility checks from real CSCliques2PF visits (the first 64
     states with |R| >= 2 under root 0's branch), each with every branch
     node v of P and its P ∩ N^s(v) *)
  let module Cs2 = Scliques_core.Cs_cliques2 in
  let rn =
    Cs2.make_runner ~rule:(Cs2.Cs2 { pivot = Some Cs2.Min_uncovered; feasibility = true }) nh
      ignore
  in
  let feasibility_calls =
    let calls = ref [] and states = ref 0 in
    let rec walk t =
      if !states < 64 then begin
        let r = Cs2.task_r t and p = Cs2.task_p t in
        if NS.cardinal r >= 2 then begin
          incr states;
          NS.iter (fun v -> calls := (t, r, v, NS.inter p (NH.ball nh v)) :: !calls) p
        end;
        List.iter walk (Cs2.expand_task rn t)
      end
    in
    walk (Cs2.root_task nh 0);
    List.rev !calls
  in
  let cap = Sgraph.Graph.n g in
  (* the N^s miss path and the branch fingerprint, each as it ran before
     (one-off hashed traversal; that traversal, a Node_set.add and one
     CRC call per id) and on reusable scratch, over the same 64 roots *)
  let miss_roots = Array.init 64 (fun i -> i * 13) in
  let bfs = Sgraph.Bfs.scratch cap in
  let csr = Sgraph.Graph.csr g in
  let off = Sgraph.Csr.offsets csr and adj = Sgraph.Csr.adjacency csr in
  let hashed_fingerprint root =
    let members = NS.add root (Sgraph.Bfs.ball g root ~radius:2) in
    let crc = ref Scoll.Crc32.start in
    for i = 0 to NS.cardinal members - 1 do
      let v = NS.nth members i in
      crc := Scoll.Crc32.add_int32_le !crc v;
      for j = off.(v) to off.(v + 1) - 1 do
        crc := Scoll.Crc32.add_int32_le !crc adj.(j)
      done;
      crc := Scoll.Crc32.add_int32_le !crc (-1)
    done;
    Scoll.Crc32.finish !crc
  in
  let staged_fingerprint = NH.root_fingerprint ~s:2 g in
  (* one result record, the largest of the first 20 CS2PF results, and
     the stream codec as it was: through lists of tokens *)
  let record =
    List.fold_left
      (fun a c -> if NS.cardinal c > NS.cardinal a then c else a)
      NS.empty
      (E.first_n E.Cs2_pf g ~s:2 20)
  in
  let module St = Scliques_core.Result_io.Stream in
  let list_encode set = String.concat " " (List.map string_of_int (NS.to_list set)) in
  let list_decode payload =
    NS.of_list
      (List.filter_map
         (fun tok -> if String.length tok = 0 then None else int_of_string_opt tok)
         (String.split_on_char ' ' payload))
  in
  let bp = NS.to_bitset p ~capacity:cap and bb = NS.to_bitset b ~capacity:cap in
  let scratch = Scoll.Bitset.copy bp in
  [
    (* the word-parallel kernel itself, operands preloaded: intersect
       then restore (union back) so every run starts from the same state —
       even doing TWO word passes per run it must beat one sorted merge *)
    Test.make ~name:"kernel:interword-list"
      (Staged.stage (fun () -> ignore (NS.inter p b)));
    Test.make ~name:"kernel:interword-bitset"
      (Staged.stage (fun () ->
           Scoll.Bitset.inter_into ~into:scratch bb;
           Scoll.Bitset.union_into ~into:scratch bp));
    Test.make ~name:"kernel:unionword-list"
      (Staged.stage (fun () -> ignore (NS.union p b)));
    Test.make ~name:"kernel:unionword-bitset"
      (Staged.stage (fun () ->
           Scoll.Bitset.union_into ~into:scratch bb;
           Scoll.Bitset.inter_into ~into:scratch bp));
    Test.make ~name:"kernel:diffword-list"
      (Staged.stage (fun () -> ignore (NS.diff p b)));
    Test.make ~name:"kernel:diffword-bitset"
      (Staged.stage (fun () ->
           Scoll.Bitset.diff_into ~into:scratch bb;
           Scoll.Bitset.union_into ~into:scratch bp));
    (* feasibility (§5.3): the set-algebra check the visit step used —
       build the universe, BFS all of it, test R's inclusion — vs the
       dense BFS over the root universe's adjacency rows that stops once
       it has reached R *)
    Test.make ~name:"kernel:feasible-list"
      (Staged.stage (fun () ->
           List.iter
             (fun (_, r, v, p_cap_ball) ->
               let universe = NS.add v (NS.union r p_cap_ball) in
               ignore (NS.subset r (Sgraph.Bfs.reachable_within g ~universe v)))
             feasibility_calls));
    Test.make ~name:"kernel:feasible-bitset"
      (Staged.stage (fun () ->
           List.iter (fun (t, _, v, _) -> ignore (Cs2.feasible rn t v)) feasibility_calls));
    Test.make ~name:"kernel:ballmiss-hashed"
      (Staged.stage (fun () ->
           Array.iter (fun v -> ignore (Sgraph.Bfs.ball g v ~radius:2)) miss_roots));
    Test.make ~name:"kernel:ballmiss-scratch"
      (Staged.stage (fun () ->
           Array.iter (fun v -> ignore (Sgraph.Bfs.ball_on bfs g v ~radius:2)) miss_roots));
    Test.make ~name:"kernel:fingerprint-hashed"
      (Staged.stage (fun () -> Array.iter (fun v -> ignore (hashed_fingerprint v)) miss_roots));
    Test.make ~name:"kernel:fingerprint-staged"
      (Staged.stage (fun () -> Array.iter (fun v -> ignore (staged_fingerprint v)) miss_roots));
    Test.make ~name:"kernel:record-lists"
      (Staged.stage (fun () -> ignore (list_decode (list_encode record))));
    Test.make ~name:"kernel:record-direct"
      (Staged.stage (fun () -> ignore (St.decode_set (St.encode_set record))));
    (* N^{∀,s}(C) has NO mask pair: the chained ball intersection stays on
       galloping sorted merges, which beat mask reloads ~2x there (see
       Neighborhood.ball_forall and EXPERIMENTS.md).
       N^{∃,1}(C): running sorted union (grows with the accumulator) vs
       bitset scatter-collect *)
    Test.make ~name:"kernel:adjany-list"
      (Staged.stage (fun () ->
           ignore
             (NS.diff
                (NS.fold
                   (fun v acc -> NS.union acc (Sgraph.Graph.neighbor_set g v))
                   c_big NS.empty)
                c_big)));
    Test.make ~name:"kernel:adjany-bitset"
      (Staged.stage (fun () -> ignore (NH.adjacent_any nh c_big)));
  ]

let tests () =
  let er = micro_er () and sf = micro_sf () and dense = micro_dense () in
  let proxy = (List.hd (Workloads.datasets ())).Workloads.proxy () in
  kernel_tests ()
  @ [
    (* one per figure, on its family's micro instance *)
    Test.make ~name:"fig9a:CS1-ER" (Staged.stage (first_n E.Cs1 er ~s:2));
    Test.make ~name:"fig9a:CS2-ER" (Staged.stage (first_n E.Cs2 er ~s:2));
    Test.make ~name:"fig9b:CS2P-ER" (Staged.stage (first_n E.Cs2_p er ~s:2));
    Test.make ~name:"fig9b:PD-ER" (Staged.stage (first_n E.Poly_delay er ~s:2));
    Test.make ~name:"fig9c:CS2P-SF" (Staged.stage (first_n E.Cs2_p sf ~s:2));
    Test.make ~name:"fig9d:CS2P-dense" (Staged.stage (first_n E.Cs2_p dense ~s:2));
    Test.make ~name:"fig9e:CS2P-s3" (Staged.stage (first_n E.Cs2_p (micro_er_s3 ()) ~s:3));
    Test.make ~name:"fig9f:CS2P-first200"
      (Staged.stage (fun () -> ignore (E.first_n E.Cs2_p er ~s:2 200)));
    Test.make ~name:"fig9g:CS2PF-SF" (Staged.stage (first_n E.Cs2_pf sf ~s:2));
    Test.make ~name:"fig9h:CS2PF-s3-SF"
      (Staged.stage (first_n E.Cs2_pf (micro_sf_s3 ()) ~s:3));
    Test.make ~name:"fig9i:CS2P-proxy" (Staged.stage (first_n E.Cs2_p proxy ~s:2));
    Test.make ~name:"fig10:CS2P-k8"
      (Staged.stage (fun () -> ignore (E.first_n ~min_size:8 E.Cs2_p er ~s:2 micro_quota)));
    Test.make ~name:"fig11:sample-sizes"
      (Staged.stage (fun () -> ignore (Scliques_core.Stats.sample E.Cs2_p er ~s:2 micro_quota)));
    (* instrumentation overhead: the ?obs-less path must sit within noise
       of the pre-observability baseline (it is the same code compiled
       with one more [match] on None); obs:on shows the enabled cost *)
    Test.make ~name:"obs:off-CS2P-ER" (Staged.stage (first_n E.Cs2_p er ~s:2));
    Test.make ~name:"obs:on-CS2P-ER"
      (Staged.stage (fun () ->
           let obs = Scliques_obs.Obs.create () in
           ignore (E.first_n ~obs E.Cs2_p er ~s:2 micro_quota)));
    Test.make ~name:"obs:off-PD-ER" (Staged.stage (first_n E.Poly_delay er ~s:2));
    Test.make ~name:"obs:on-PD-ER"
      (Staged.stage (fun () ->
           let obs = Scliques_obs.Obs.create () in
           ignore (E.first_n ~obs E.Poly_delay er ~s:2 micro_quota)));
  ]

let run ?filter () =
  let cfg =
    Benchmark.cfg ~limit:50
      ~quota:(Time.second (if Harness.fast then 0.15 else 0.4))
      ~kde:None ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let selected =
    match filter with
    | None -> tests ()
    | Some prefix ->
        List.filter
          (fun t ->
            let name = Test.name t in
            String.length name >= String.length prefix
            && String.equal (String.sub name 0 (String.length prefix)) prefix)
          (tests ())
  in
  let grouped = Test.make_grouped ~name:"scliques" ~fmt:"%s %s" selected in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n== Bechamel micro-benchmarks (ns per run, OLS on monotonic clock) ==\n";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
        in
        (name, estimate) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-28s %12.0f ns/run (%.3f ms)\n" name ns (ns /. 1e6))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  flush stdout
