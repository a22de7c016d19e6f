(* Community detection with s-cliques.

   The paper's intro: "the 2-cliques seem to better capture the graph
   communities, as they are a bit coarser" than cliques. This example makes
   that claim measurable. We plant communities in a random graph, detect
   candidate communities as the largest maximal connected s-cliques for
   s = 1 and s = 2, and score each detection against the planted ground
   truth with the Jaccard index. The 2-clique detection should recover
   communities markedly better than the clique detection, which shatters
   each community into tiny fragments.

   Run with: dune exec examples/community_detection.exe *)

module E = Scliques_core.Enumerate
module NS = Sgraph.Node_set

let jaccard a b =
  let inter = NS.inter_cardinal a b in
  let union = NS.cardinal a + NS.cardinal b - inter in
  if union = 0 then 0. else float_of_int inter /. float_of_int union

let planted ~n ~communities c =
  (* Gen.planted_partition assigns node v to community v*c/n *)
  let members = ref [] in
  for v = 0 to n - 1 do
    if v * communities / n = c then members := v :: !members
  done;
  NS.of_list !members

let best_match truth detections =
  List.fold_left (fun best d -> max best (jaccard truth d)) 0. detections

let () =
  let n = 120 and communities = 6 in
  let rng = Scoll.Rng.create 2024 in
  let g = Sgraph.Gen.planted_partition rng ~n ~communities ~p_in:0.35 ~p_out:0.01 in
  Printf.printf "Planted-partition graph: %s\n" (Sgraph.Metrics.summary g);
  Printf.printf "%d planted communities of %d nodes each\n\n" communities (n / communities);
  List.iter
    (fun s ->
      (* communities = the largest enumerated sets, one per planted block *)
      let all = E.sorted_results E.Cs2_pf g ~s in
      let by_size =
        List.sort (fun a b -> compare (NS.cardinal b) (NS.cardinal a)) all
      in
      let top = List.filteri (fun i _ -> i < 3 * communities) by_size in
      let scores =
        List.init communities (fun c ->
            best_match (planted ~n ~communities c) top)
      in
      let avg = List.fold_left ( +. ) 0. scores /. float_of_int communities in
      let stats = Scliques_core.Stats.of_results all in
      Printf.printf
        "s=%d: %5d maximal connected s-cliques, sizes avg %.1f max %d\n"
        s stats.Scliques_core.Stats.count stats.Scliques_core.Stats.avg_size
        stats.Scliques_core.Stats.max_size;
      Printf.printf
        "      community recovery (avg best Jaccard vs planted truth): %.2f\n\n" avg)
    [ 1; 2 ];
  print_endline
    "The coarser 2-cliques recover the planted communities; plain cliques only\n\
     find small fragments of them (the paper's Example 1.1 intuition)."
