let max_node_count = (1 lsl 30) - 1

let tokens line =
  List.filter (fun t -> String.length t > 0) (String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) line))

let parse_lines ~file lines =
  let fail lineno fmt = Io_error.failf ~file ~line:lineno fmt in
  (* drop comments but keep original line numbers for messages *)
  let numbered =
    List.filter
      (fun (_, line) -> String.length line = 0 || line.[0] <> '%')
      (List.mapi (fun i line -> (i + 1, line)) lines)
  in
  match numbered with
  | [] -> Io_error.fail ~file ~line:0 "METIS: empty input"
  | (hline, header) :: rest ->
      let n, m =
        match tokens header with
        | [ n; m ] | [ n; m; "0" ] -> (
            match (int_of_string_opt n, int_of_string_opt m) with
            | Some n, Some m when n >= 0 && m >= 0 && n <= max_node_count -> (n, m)
            | Some n, Some _ when n > max_node_count ->
                fail hline "header node count %d exceeds the %d limit" n max_node_count
            | _ -> fail hline "malformed header %S" header)
        | [ _; _; fmt ] -> fail hline "unsupported format field %S (only 0)" fmt
        | _ -> fail hline "expected header \"n m\""
      in
      (* exactly n data lines; blank lines are isolated nodes *)
      let data = List.filteri (fun i _ -> i < n) rest in
      if List.length data < n then
        Io_error.failf ~file ~line:0 "METIS: expected %d node lines, found %d" n
          (List.length data);
      let builder = Builder.create ~expected_nodes:n () in
      if n > 0 then Builder.add_node builder (n - 1);
      List.iteri
        (fun i (lineno, line) ->
          List.iter
            (fun tok ->
              match int_of_string_opt tok with
              | Some u when u >= 1 && u <= n -> Builder.add_edge builder i (u - 1)
              | Some u -> fail lineno "neighbor %d out of range [1, %d]" u n
              | None -> fail lineno "expected a node id, got %S" tok)
            (tokens line))
        data;
      let g = Builder.build builder in
      (* every edge must have been listed from both endpoints *)
      if Builder.edge_count builder <> 2 * Graph.m g then
        Io_error.failf ~file ~line:0
          "METIS: adjacency not symmetric or has duplicate entries (%d directed \
           entries for %d edges)"
          (Builder.edge_count builder) (Graph.m g);
      if Graph.m g <> m then
        Io_error.failf ~file ~line:0 "METIS: header claims %d edges, found %d" m
          (Graph.m g);
      g

let parse_string ?(file = "<string>") s =
  (* drop the empty element a final newline leaves behind, so it is not
     mistaken for an isolated node's blank line *)
  let lines =
    match List.rev (String.split_on_char '\n' s) with
    | "" :: rest -> List.rev rest
    | lines -> List.rev lines
  in
  Io_error.structured ~file (fun () -> parse_lines ~file lines)

let load path =
  let ic = open_in path in
  (* only End_of_file is caught — a read failure propagates with the
     channel closed by the protect, never parsing a truncated file *)
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  in
  Io_error.structured ~file:path (fun () -> parse_lines ~file:path lines)

let to_string g =
  let buf = Buffer.create (16 * (Graph.m g + 2)) in
  Buffer.add_string buf (Printf.sprintf "%% undirected graph in METIS format\n");
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_nodes
    (fun v ->
      let first = ref true in
      Graph.iter_neighbors
        (fun u ->
          if !first then first := false else Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int (u + 1)))
        g v;
      Buffer.add_char buf '\n')
    g;
  Buffer.contents buf

let save g path =
  let oc = open_out path in
  (* close_out inside the body so flush errors on the success path are
     reported; the noerr close in [finally] is then a no-op *)
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string g);
      close_out oc)
