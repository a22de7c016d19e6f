(* Link prediction from maximal connected s-cliques.

   The paper's intro proposes this application: "missing direct links in
   large s-cliques are prime candidates for link suggestion. Note that
   large cliques could not be used for this purpose, as they are missing
   no links at all, by definition."

   Protocol: generate a social-network proxy, hide a sample of true edges,
   enumerate maximal connected 2-cliques of the damaged graph, and score
   every non-adjacent pair inside each s-clique by how many s-cliques it
   appears in (co-membership count). We then measure how highly the hidden
   edges rank among all predictions — a standard link-prediction hit-rate.

   Run with: dune exec examples/link_prediction.exe *)

module E = Scliques_core.Enumerate
module G = Sgraph.Graph
module NS = Sgraph.Node_set

let () =
  let rng = Scoll.Rng.create 99 in
  let g =
    Sgraph.Gen.planted_partition rng ~n:240 ~communities:12 ~p_in:0.45 ~p_out:0.004
  in
  Printf.printf "Community-structured network: %s\n" (Sgraph.Metrics.summary g);

  (* hide 5%% of the edges *)
  let edges = Array.of_list (G.edges g) in
  Scoll.Rng.shuffle rng edges;
  let hidden_count = Array.length edges / 20 in
  let hidden = Array.sub edges 0 hidden_count in
  let kept = Array.to_list (Array.sub edges hidden_count (Array.length edges - hidden_count)) in
  let damaged = G.of_edges ~n:(G.n g) kept in
  Printf.printf "Hidden %d of %d edges; enumerating 2-cliques of the damaged graph...\n"
    hidden_count (Array.length edges);

  (* score non-adjacent pairs by co-membership in LARGE s-cliques only —
     the paper: "missing direct links in large s-cliques are prime
     candidates for link suggestion" *)
  let min_size = 10 in
  let scores = Hashtbl.create 4096 in
  let key u v = if u < v then (u, v) else (v, u) in
  let n_results = ref 0 in
  let (_ : E.run_report) =
    E.run ~min_size E.Cs2_pf damaged ~s:2 (fun c ->
        incr n_results;
        let members = NS.to_array c in
        let k = Array.length members in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            let u = members.(i) and v = members.(j) in
            if not (G.mem_edge damaged u v) then begin
              let key = key u v in
              Hashtbl.replace scores key
                (1 + Option.value ~default:0 (Hashtbl.find_opt scores key))
            end
          done
        done)
  in
  Printf.printf "%d maximal connected 2-cliques of size >= %d; %d candidate pairs scored\n"
    !n_results min_size (Hashtbl.length scores);

  (* rank candidates by score, descending *)
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) scores [])
  in
  let hidden_set = Hashtbl.create 64 in
  Array.iter (fun (u, v) -> Hashtbl.replace hidden_set (key u v) ()) hidden;
  let hits_at k =
    let rec go i = function
      | (pair, _) :: rest when i < k ->
          (if Hashtbl.mem hidden_set pair then 1 else 0) + go (i + 1) rest
      | _ -> 0
    in
    go 0 ranked
  in
  List.iter
    (fun k ->
      let hits = hits_at k in
      Printf.printf "hits@%-4d: %3d hidden edges recovered (%.1f%% precision)\n" k hits
        (100. *. float_of_int hits /. float_of_int k))
    [ 10; 50; 100; hidden_count ];
  let random_precision =
    float_of_int hidden_count
    /. float_of_int (G.n g * (G.n g - 1) / 2 - G.m damaged)
  in
  Printf.printf
    "(random guessing over all non-edges would score %.2f%% precision)\n"
    (100. *. random_precision)
