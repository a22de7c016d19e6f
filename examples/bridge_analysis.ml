(* Bridge/broker analysis with overlapping s-cliques.

   Example 1.1 observes that the maximal 2-cliques of Figure 1 "highlight
   the fact that d is a bridge between the communities": Dan is the only
   person in all three of them. This example turns that observation into a
   brokerage score — the number of maximal connected s-cliques a node
   belongs to — and contrasts it with raw degree on both the paper's toy
   network and a larger two-community graph, where the planted bridge node
   wins on brokerage despite a modest degree.

   Run with: dune exec examples/bridge_analysis.exe *)

module E = Scliques_core.Enumerate
module G = Sgraph.Graph
module NS = Sgraph.Node_set

let membership_counts g ~s =
  let counts = Array.make (G.n g) 0 in
  let (_ : E.run_report) =
    E.run E.Cs2_pf g ~s (fun c -> NS.iter (fun v -> counts.(v) <- counts.(v) + 1) c)
  in
  counts

let top_k k scored =
  let arr = Array.mapi (fun v c -> (c, v)) scored in
  Array.sort (fun (a, _) (b, _) -> compare b a) arr;
  Array.to_list (Array.sub arr 0 (min k (Array.length arr)))

let () =
  (* part 1: the paper's Figure 1 *)
  let g, name = Sgraph.Gen.figure1 () in
  let counts = membership_counts g ~s:2 in
  Printf.printf "Figure 1, s = 2 — maximal-2-clique memberships per person:\n";
  Array.iteri
    (fun v c -> Printf.printf "  %-4s degree=%d memberships=%d\n" (name v) (G.degree g v) c)
    counts;
  let (best_count, best), _ = (List.hd (top_k 1 counts), ()) in
  Printf.printf "--> %s is the bridge (in all %d maximal 2-cliques)\n\n" (name best)
    best_count;

  (* part 2: two dense communities joined through one planted broker.
     A maximal connected 2-clique that contains people from both sides must
     pass through the broker (a cut vertex), so counting community-spanning
     s-cliques per node pinpoints the broker even though its degree is
     modest. *)
  let rng = Scoll.Rng.create 7 in
  let community_size = 60 in
  let builder = Sgraph.Builder.create () in
  let add_community offset =
    let g = Sgraph.Gen.erdos_renyi rng ~n:community_size ~avg_degree:8. in
    G.iter_edges (fun u v -> Sgraph.Builder.add_edge builder (offset + u) (offset + v)) g
  in
  add_community 0;
  add_community community_size;
  let broker = 2 * community_size in
  (* the broker knows a handful of people on each side — fewer contacts
     than a typical community member has *)
  for _ = 1 to 5 do
    Sgraph.Builder.add_edge builder broker (Scoll.Rng.int rng community_size);
    Sgraph.Builder.add_edge builder broker (community_size + Scoll.Rng.int rng community_size)
  done;
  let big = Sgraph.Builder.build builder in
  Printf.printf "Two-community graph: %s (broker = node %d)\n" (Sgraph.Metrics.summary big)
    broker;
  let side v = if v = broker then `Broker else if v < community_size then `Left else `Right in
  let spanning = Array.make (G.n big) 0 in
  let total_spanning = ref 0 in
  let (_ : E.run_report) =
    E.run E.Cs2_pf big ~s:2 (fun c ->
        let left = NS.exists (fun v -> side v = `Left) c in
        let right = NS.exists (fun v -> side v = `Right) c in
        if left && right then begin
          incr total_spanning;
          NS.iter (fun v -> spanning.(v) <- spanning.(v) + 1) c
        end)
  in
  Printf.printf "%d maximal 2-cliques span both communities\n" !total_spanning;
  let in_all =
    List.filter (fun v -> spanning.(v) = !total_spanning) (List.init (G.n big) Fun.id)
  in
  Printf.printf "nodes present in EVERY spanning 2-clique: %s\n"
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf "%d%s" v (if v = broker then " (the planted broker)" else ""))
          in_all));
  assert (List.mem broker in_all);
  Printf.printf
    "every community-spanning 2-clique goes through the broker — it is a cut\n\
     vertex, and s-clique analysis surfaces it with no centrality machinery\n";
  let max_degree_node =
    top_k 1 (Array.init (G.n big) (G.degree big)) |> List.hd |> snd
  in
  Printf.printf
    "(the max-degree node is %d with degree %d — degree alone does not find the broker)\n"
    max_degree_node (G.degree big max_degree_node)
