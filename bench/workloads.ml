(* Workload graphs of the paper's evaluation (§7), memoized so that every
   experiment sweeping the same family reuses the same graph.

   The paper uses SNAP-generated Erdős–Rényi ("ER") and scale-free ("SF")
   graphs plus five SNAP datasets. Sizes here are scaled down ~1/10–1/100
   (see DESIGN.md §4); shapes, not absolute times, are the target. *)

module G = Sgraph.Graph

module Stbl = Hashtbl.Make (String)

let cache : G.t Stbl.t = Stbl.create 32

let memo key build =
  match Stbl.find_opt cache key with
  | Some g -> g
  | None ->
      let g = build () in
      Stbl.replace cache key g;
      g

let rng_for key =
  (* one deterministic stream per workload, independent of build order *)
  Scoll.Rng.create (Harness.seed + Hashtbl.hash key)

let er ~n ~avg_degree =
  let key = Printf.sprintf "er-%d-%g" n avg_degree in
  memo key (fun () -> Sgraph.Gen.erdos_renyi (rng_for key) ~n ~avg_degree)

let sf ~n ~avg_degree =
  let key = Printf.sprintf "sf-%d-%g" n avg_degree in
  let m_attach = max 1 (int_of_float (avg_degree /. 2.)) in
  memo key (fun () -> Sgraph.Gen.barabasi_albert (rng_for key) ~n ~m_attach)

(* ---------- real-dataset proxies ---------- *)

type dataset = {
  name : string;
  paper_nodes : int;
  paper_edges : int;
  proxy : unit -> G.t;
}

let proxy_of ~name ~n ~avg_degree ~communities =
  let key = Printf.sprintf "proxy-%s" name in
  memo key (fun () ->
      Sgraph.Gen.social_proxy (rng_for key) ~n ~avg_degree ~communities)

let scale n = if Harness.fast then n / 4 else n

(* Node/edge counts as reported in the paper's §7; average degree of each
   proxy matches the dataset's 2m/n. *)
let datasets () =
  [
    {
      name = "dblp";
      paper_nodes = 317_080;
      paper_edges = 1_049_866;
      proxy =
        (fun () ->
          proxy_of ~name:"dblp" ~n:(scale 12000) ~avg_degree:6.6 ~communities:240);
    };
    {
      name = "amazon";
      paper_nodes = 334_863;
      paper_edges = 925_872;
      proxy =
        (fun () ->
          proxy_of ~name:"amazon" ~n:(scale 12000) ~avg_degree:5.5 ~communities:240);
    };
    {
      name = "LiveJournal";
      paper_nodes = 3_997_962;
      paper_edges = 34_681_189;
      proxy =
        (fun () ->
          proxy_of ~name:"LiveJournal" ~n:(scale 16000) ~avg_degree:17.3
            ~communities:160);
    };
    {
      name = "twitter";
      paper_nodes = 81_306;
      paper_edges = 1_768_149;
      proxy =
        (fun () ->
          proxy_of ~name:"twitter" ~n:(scale 4000) ~avg_degree:43.5 ~communities:40);
    };
    {
      name = "youtube";
      paper_nodes = 1_134_890;
      paper_edges = 2_987_624;
      proxy =
        (fun () ->
          proxy_of ~name:"youtube" ~n:(scale 12000) ~avg_degree:5.3 ~communities:480);
    };
  ]

(* Sweep sizes (scaled from the paper's 1K..10M) *)

let er_sizes_9a = if Harness.fast then [ 300; 1000; 3000 ] else [ 1000; 3000; 10_000 ]

let er_sizes_9b =
  if Harness.fast then [ 300; 1000; 3000 ] else [ 1000; 3000; 10_000; 30_000 ]

let sf_sizes_9c = if Harness.fast then [ 300; 1000 ] else [ 1000; 3000; 10_000 ]

let densities_er = if Harness.fast then [ 4.; 10.; 20. ] else [ 4.; 10.; 20.; 40.; 80. ]

let densities_sf = if Harness.fast then [ 4.; 10. ] else [ 4.; 10.; 20.; 40. ]

let n_9d = if Harness.fast then 1000 else 10_000

let n_9e = if Harness.fast then 1000 else 10_000

(* Fig 9f enumerates ALL results (tens per node on ER deg 10), so the
   graph is kept small enough for the slowest algorithm to show several
   deciles within budget. *)
let n_9f = if Harness.fast then 300 else 800

(* the index ablation needs complete PolyDelayEnum runs *)
let n_index = if Harness.fast then 100 else 200

let n_sf = if Harness.fast then 1000 else 3000

let ks_er = [ 5; 10; 15; 20 ]

let ks_sf = if Harness.fast then [ 10; 20 ] else [ 20; 30; 40; 50 ]

let k_real = 15
