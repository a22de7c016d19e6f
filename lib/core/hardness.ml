module Node_set = Sgraph.Node_set
module Graph = Sgraph.Graph

type literal = { variable : int; negated : bool }

type clause = literal * literal * literal

type cnf = clause list

let literals (a, b, c) = [ a; b; c ]

let variables cnf =
  List.sort_uniq Int.compare
    (List.concat_map (fun cl -> List.map (fun l -> l.variable) (literals cl)) cnf)

let clause_satisfied truth cl =
  List.exists (fun l -> truth l.variable <> l.negated) (literals cl)

let satisfiable cnf =
  let vars = variables cnf in
  let k = List.length vars in
  if k > 20 then invalid_arg "Hardness.satisfiable: too many variables";
  let vars = Array.of_list vars in
  let rec try_mask mask =
    if mask >= 1 lsl k then false
    else begin
      let truth v =
        let rec index i = if vars.(i) = v then i else index (i + 1) in
        mask land (1 lsl index 0) <> 0
      in
      List.for_all (clause_satisfied truth) cnf || try_mask (mask + 1)
    end
  in
  List.is_empty cnf || try_mask 0

type reduction = {
  graph : Graph.t;
  seed : Node_set.t;
  s : int;
  literal_node : int -> int -> int;
  original_nodes : Node_set.t;
}

let conflicting cnf i j i' j' =
  let l = List.nth (literals (List.nth cnf i)) j in
  let l' = List.nth (literals (List.nth cnf i')) j' in
  l.variable = l'.variable && l.negated <> l'.negated

let reduce cnf ~s =
  if s <= 1 then invalid_arg "Hardness.reduce: requires s > 1";
  if List.is_empty cnf then invalid_arg "Hardness.reduce: empty formula";
  List.iter
    (fun cl ->
      let ls = literals cl in
      List.iter
        (fun l ->
          List.iter
            (fun l' ->
              if l.variable = l'.variable && l.negated <> l'.negated then
                invalid_arg "Hardness.reduce: clause contains a variable and its negation")
            ls)
        ls)
    cnf;
  let m = List.length cnf in
  (* node layout: chain node c_i^k (k ∈ 1..s) = i*s + (k-1);
     literal node x_i^j = m*s + 3i + j; f = m*s + 3m; fresh path nodes
     follow *)
  let chain i k = (i * s) + (k - 1) in
  let literal_node i j = (m * s) + (3 * i) + j in
  let f_node = (m * s) + (3 * m) in
  let v0_count = f_node + 1 in
  let builder = Sgraph.Builder.create () in
  (* G_0 edges *)
  for i = 0 to m - 1 do
    for k = 1 to s - 1 do
      Sgraph.Builder.add_edge builder (chain i k) (chain i (k + 1))
    done;
    for j = 0 to 2 do
      Sgraph.Builder.add_edge builder (chain i s) (literal_node i j);
      if i < m - 1 then Sgraph.Builder.add_edge builder (literal_node i j) (chain (i + 1) 1)
      else Sgraph.Builder.add_edge builder (literal_node i j) f_node
    done
  done;
  let g0 = Sgraph.Builder.build builder in
  (* pairwise G_0 distances between original nodes *)
  let dist0 = Array.init v0_count (fun v -> Sgraph.Bfs.distances g0 v) in
  let is_literal v = v >= m * s && v < f_node in
  let lit_indices v =
    let off = v - (m * s) in
    (off / 3, off mod 3)
  in
  let pair_conflicting u v =
    is_literal u && is_literal v
    &&
    let i, j = lit_indices u and i', j' = lit_indices v in
    conflicting cnf i j i' j'
  in
  (* fill: a fresh path of length s between every non-conflicting pair of
     original nodes at G_0-distance > s *)
  let next = ref v0_count in
  for u = 0 to v0_count - 1 do
    for v = u + 1 to v0_count - 1 do
      let d = dist0.(u).(v) in
      if (d < 0 || d > s) && not (pair_conflicting u v) then begin
        let prev = ref u in
        for _ = 1 to s - 1 do
          Sgraph.Builder.add_edge builder !prev !next;
          prev := !next;
          incr next
        done;
        Sgraph.Builder.add_edge builder !prev v
      end
    done
  done;
  let graph = Sgraph.Builder.build builder in
  let seed =
    Node_set.of_list
      (f_node :: List.concat (List.init m (fun i -> List.init s (fun k -> chain i (k + 1)))))
  in
  { graph; seed; s; literal_node; original_nodes = Node_set.range 0 v0_count }

let seed_is_s_clique r = Verify.is_s_clique r.graph ~s:r.s r.seed

exception Found

let feasible r =
  try
    let (_ : Enumerate.run_report) =
      Enumerate.run Enumerate.Cs2_pf r.graph ~s:r.s (fun c ->
          if Node_set.subset r.seed c then raise Found)
    in
    false
  with Found -> true

let witness_of_assignment r cnf truth =
  let chosen = ref r.seed in
  List.iteri
    (fun i cl ->
      List.iteri
        (fun j l ->
          if truth l.variable <> l.negated then
            chosen := Node_set.add (r.literal_node i j) !chosen)
        (literals cl))
    cnf;
  !chosen
