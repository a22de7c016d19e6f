type t = {
  count : int;
  min_size : int;
  max_size : int;
  avg_size : float;
  total_nodes : int;
}

let empty = { count = 0; min_size = 0; max_size = 0; avg_size = 0.; total_nodes = 0 }

let add t size =
  let count = t.count + 1 and total_nodes = t.total_nodes + size in
  let first = t.count = 0 in
  {
    count;
    min_size = (if first then size else Int.min t.min_size size);
    max_size = (if first then size else Int.max t.max_size size);
    avg_size = float_of_int total_nodes /. float_of_int count;
    total_nodes;
  }

let of_sizes sizes = List.fold_left add empty sizes

let of_results results =
  List.fold_left (fun t c -> add t (Sgraph.Node_set.cardinal c)) empty results

let sample ?cache_capacity algorithm g ~s n =
  of_results (Enumerate.first_n ?cache_capacity algorithm g ~s n)

let pp fmt t =
  Format.fprintf fmt "count=%d min=%d avg=%.2f max=%d" t.count t.min_size t.avg_size
    t.max_size
