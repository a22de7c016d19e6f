module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

type property = {
  name : string;
  build : Graph.t -> Node_set.t -> bool;
  carve_unique : bool;
}

let clique =
  { name = "clique"; build = (fun g u -> Verify.is_clique g u); carve_unique = true }

let s_clique ~s =
  if s < 1 then invalid_arg "Hereditary.s_clique: s must be >= 1";
  let build g =
    (* memoized distance-ball oracle shared by all queries on this graph *)
    let nh = Neighborhood.create ~s g in
    fun u ->
      Node_set.for_all
        (fun v ->
          let ball = Neighborhood.ball nh v in
          Node_set.for_all (fun w -> w = v || Node_set.mem w ball) u)
        u
  in
  { name = Printf.sprintf "%d-clique" s; build; carve_unique = true }

let k_plex ~k =
  if k < 1 then invalid_arg "Hereditary.k_plex: k must be >= 1";
  let build g u =
    let size = Node_set.cardinal u in
    Node_set.for_all (fun v -> Quasi_clique.internal_degree g u v >= size - k) u
  in
  { name = Printf.sprintf "%d-plex" k; build; carve_unique = false }

(* Greedy growth to a maximal connected satisfying set — exact because
   the property is connected-hereditary (see the .mli). Deterministic:
   the smallest eligible adjacent node joins first. *)
let extend_max g holds seed =
  let result = ref seed in
  let continue_ = ref true in
  while !continue_ do
    let frontier =
      Node_set.diff
        (Node_set.fold
           (fun v acc -> Node_set.union acc (Graph.neighbor_set g v))
           !result Node_set.empty)
        !result
    in
    match
      Node_set.fold
        (fun v found ->
          match found with
          | Some _ -> found
          | None -> if holds (Node_set.add v !result) then Some v else None)
        frontier None
    with
    | Some v -> result := Node_set.add v !result
    | None -> continue_ := false
  done;
  !result

(* Carve step (paper line 10 generalized): the restricted problem on
   G[C ∪ {v}] — membership and connectivity live in the induced
   subgraph, but the property itself stays that of the ORIGINAL graph.
   The distinction only matters for non-local properties: an s-clique's
   witness paths may leave the universe (§3 measures distances in the
   ambient graph), so rebuilding the predicate on the induced subgraph
   would lose results (the same trap as PD's line-10 carve). Local
   properties (cliques, k-plexes) read only internal edges and cannot
   tell the difference. For carve-unique properties the greedy growth
   from {v} is the (single) answer; otherwise every maximal restricted
   solution containing v is enumerated by brute force — CKS's
   input-restricted problem. *)
let carve g property ~holds ~emitted v =
  let universe = Node_set.add v emitted in
  let sub, back = Graph.induced g universe in
  let fwd = Hashtbl.create (2 * Node_set.cardinal universe) in
  Array.iteri (fun i orig -> Hashtbl.replace fwd orig i) back;
  let v_sub = Hashtbl.find fwd v in
  let to_original grown =
    Node_set.of_list (List.map (fun i -> back.(i)) (Node_set.to_list grown))
  in
  let holds_sub u = holds (to_original u) in
  if property.carve_unique then
    [ to_original (extend_max sub holds_sub (Node_set.singleton v_sub)) ]
  else begin
    let k = Graph.n sub in
    if k > Brute_force.max_nodes then
      invalid_arg
        (Printf.sprintf
           "Hereditary.iter: %s restricted instance has %d nodes (cap %d); this \
            property needs a dedicated restricted-problem solver beyond that"
           property.name k Brute_force.max_nodes);
    let qualifies u = Sgraph.Bfs.is_connected_subset sub u && holds_sub u in
    let solutions = ref [] in
    for mask = 1 to (1 lsl k) - 1 do
      if mask land (1 lsl v_sub) <> 0 then begin
        let members = ref [] in
        for i = k - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then members := i :: !members
        done;
        let u = Node_set.of_list !members in
        if qualifies u then begin
          (* maximal within the restricted instance: single-node extension
             is exact for connected-hereditary properties *)
          let extensible = ref false in
          for w = 0 to k - 1 do
            if (not (Node_set.mem w u)) && qualifies (Node_set.add w u) then
              extensible := true
          done;
          if not !extensible then solutions := to_original u :: !solutions
        end
      end
    done;
    !solutions
  end

let iter ?budget ?(should_continue = fun () -> true) g property yield =
  let should_continue =
    match budget with
    | None -> should_continue
    | Some b ->
        let check = Budget.checker b in
        fun () -> check () && should_continue ()
  in
  let yield =
    match budget with
    | None -> yield
    | Some b ->
        fun c ->
          yield c;
          Budget.note_result b
  in
  let holds = property.build g in
  let queue = Scoll.Fifo_queue.create () in
  let index = Scoll.Btree.create ~cmp:Node_set.compare () in
  let register c = if Scoll.Btree.add index c then Scoll.Fifo_queue.push queue c in
  List.iter
    (fun comp ->
      register (extend_max g holds (Node_set.singleton (Node_set.min_elt comp))))
    (Sgraph.Components.components g);
  let running = ref true in
  while !running do
    if not (should_continue ()) then running := false
    else
      match Scoll.Fifo_queue.pop_opt queue with
      | None -> running := false
      | Some c ->
          yield c;
          let frontier =
            Node_set.diff
              (Node_set.fold
                 (fun v acc -> Node_set.union acc (Graph.neighbor_set g v))
                 c Node_set.empty)
              c
          in
          Node_set.iter
            (fun v ->
              List.iter
                (fun carved -> register (extend_max g holds carved))
                (carve g property ~holds ~emitted:c v))
            frontier
  done

let all g property =
  let acc = ref [] in
  iter g property (fun c -> acc := c :: !acc);
  List.sort Node_set.compare !acc

let brute_force g property =
  if Graph.n g > Brute_force.max_nodes then
    invalid_arg
      (Printf.sprintf "Hereditary.brute_force: graph has %d nodes, limit is %d"
         (Graph.n g) Brute_force.max_nodes);
  let holds = property.build g in
  let n = Graph.n g in
  let qualifies u = Sgraph.Bfs.is_connected_subset g u && holds u in
  let sets = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let members = ref [] in
    for v = n - 1 downto 0 do
      if mask land (1 lsl v) <> 0 then members := v :: !members
    done;
    let u = Node_set.of_list !members in
    if qualifies u then begin
      let extensible = ref false in
      for v = 0 to n - 1 do
        if (not (Node_set.mem v u)) && qualifies (Node_set.add v u) then
          extensible := true
      done;
      if not !extensible then sets := u :: !sets
    end
  done;
  List.sort Node_set.compare !sets
