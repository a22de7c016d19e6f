module G = Sgraph.Graph
module Stream = Scliques_core.Result_io.Stream
module Ridx = Scliques_core.Result_io.Index

let s = 2

(* enum-dblp: the dblp proxy of bench/workloads.ml at full size *)
let dblp_n = 12_000
let dblp_degree = 6.6
let dblp_communities = 240

(* pd-er: the Fig 9b instance. PD's first results explore one region of
   the graph, so one draw varies a lot between seeds; each seed brings
   [pd_graphs] independent draws and a run visits every one. *)
let pd_n = 10_000
let pd_degree = 10.
let pd_k = 1000
let pd_graphs = 4

(* refresh-er: more edits than any run reaches *)
let refresh_n = 5000
let refresh_degree = 10.
let refresh_edits = 400

(* serve-churn: an ER graph whose complete answer is about 2K results
   (within 1% between seeds). Social proxies of that answer size put a
   hub at root 0 and vary in query cost by 25% or more between seeds,
   so time to first result measured the hub, not the serving path. A
   cycle of [serve_cycle] distinct edges is deleted one by one and then
   inserted back in the same order, so the graph returns to its start
   every [2 * serve_cycle] mutations while the overlay's distance from
   its base keeps growing. *)
let serve_n = 2000
let serve_degree = 4.
let serve_cycle = 8
let serve_threshold = 4
let serve_rate = 10.

let workloads = [ "enum-dblp"; "pd-er"; "serve-churn"; "refresh-er" ]

let graph dir i = Filename.concat dir (Printf.sprintf "graph-%d.sgr" i)
let reference dir i = Filename.concat dir (Printf.sprintf "reference-%d.sclqs" i)
let edits dir = Filename.concat dir "edits.sgrdiff"
let prior dir = Filename.concat dir "prior.sclqs"

let write_stream path results =
  let w = Stream.open_writer path in
  List.iter (Stream.write_set w) results;
  Stream.close w

(* the references come from the work-stealing engine, a second engine
   beside the sequential CS2PF the runs time *)
let reference_answer g = Scliques_core.Parallel.enumerate ~workers:2 g ~s

(* a live edge of [o]: a random node with neighbors, then a random one
   of its neighbors *)
let random_edge rng o =
  let n = Sgraph.Overlay.n o in
  let rec pick () =
    let u = Scoll.Rng.int rng n in
    let row = Sgraph.Overlay.row o u in
    if Array.length row = 0 then pick ()
    else (u, row.(Scoll.Rng.int rng (Array.length row)))
  in
  pick ()

let random_non_edge rng o =
  let rec pick () =
    let u, v = Scoll.Rng.pair_distinct rng (Sgraph.Overlay.n o) in
    if Sgraph.Overlay.mem_edge o u v then pick () else (u, v)
  in
  pick ()

let prepare workload ~seed dir =
  let rng = Scoll.Rng.create (Hashtbl.hash (workload, seed)) in
  match workload with
  | "enum-dblp" ->
      let g =
        Sgraph.Gen.social_proxy rng ~n:dblp_n ~avg_degree:dblp_degree
          ~communities:dblp_communities
      in
      Sgraph.Snapshot.save g (graph dir 0);
      write_stream (reference dir 0) (reference_answer g)
  | "pd-er" ->
      for i = 0 to pd_graphs - 1 do
        Sgraph.Snapshot.save
          (Sgraph.Gen.erdos_renyi rng ~n:pd_n ~avg_degree:pd_degree)
          (graph dir i)
      done
  | "refresh-er" ->
      let g = Sgraph.Gen.erdos_renyi rng ~n:refresh_n ~avg_degree:refresh_degree in
      Sgraph.Snapshot.save g (graph dir 0);
      (* alternate deleting a live edge and inserting a non-edge, each
         effective on the graph the previous edits left *)
      let o = Sgraph.Overlay.of_graph g in
      let script =
        List.init refresh_edits (fun i ->
            let e =
              if i land 1 = 0 then
                let u, v = random_edge rng o in
                Sgraph.Overlay.Delete (u, v)
              else
                let u, v = random_non_edge rng o in
                Sgraph.Overlay.Insert (u, v)
            in
            Sgraph.Overlay.apply o [ e ];
            e)
      in
      Sgraph.Diff.save ~base_n:(G.n g) ~base_m:(G.m g) script (edits dir);
      (* the prior answer the way [enum --checkpoint] leaves it: a
         root-grouped stream plus its SCLQIDX1 sidecar *)
      let path = prior dir in
      write_stream path (reference_answer g);
      let idx =
        Ridx.build ~s ~n:(G.n g)
          ~fingerprint:(Scliques_core.Neighborhood.root_fingerprint ~s g)
          path
      in
      Ridx.save idx (Ridx.path_for path)
  | "serve-churn" ->
      let g = Sgraph.Gen.erdos_renyi rng ~n:serve_n ~avg_degree:serve_degree in
      Sgraph.Snapshot.save g (graph dir 0);
      let all = Array.of_list (G.edges g) in
      let picked =
        Array.map
          (fun i -> all.(i))
          (Scoll.Rng.sample_without_replacement rng ~k:serve_cycle
             ~n:(Array.length all))
      in
      let cycle =
        List.map (fun (u, v) -> Sgraph.Overlay.Delete (u, v)) (Array.to_list picked)
        @ List.map (fun (u, v) -> Sgraph.Overlay.Insert (u, v)) (Array.to_list picked)
      in
      Sgraph.Diff.save ~base_n:(G.n g) ~base_m:(G.m g) cycle (edits dir);
      (* state i is the graph after the first i edits of the cycle *)
      ignore
        (List.fold_left
           (fun (i, g) e ->
             write_stream (reference dir i) (reference_answer g);
             (i + 1, Sgraph.Diff.apply g [ e ]))
           (0, g) cycle)
  | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)
