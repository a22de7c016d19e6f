let is_space c = c = ' ' || c = '\t' || c = '\r'

(* Reject ids that would make Builder.build allocate per-id arrays of
   absurd size: a stray "99999999999" token in a corrupt file must be a
   parse error, not a multi-gigabyte allocation. 2^30 nodes is already
   far beyond what this in-memory representation can hold. *)
let max_node_id = (1 lsl 30) - 1

let parse_line builder ~file lineno line =
  let len = String.length line in
  let fail msg = Io_error.fail ~file ~line:lineno msg in
  let rec skip_spaces i = if i < len && is_space line.[i] then skip_spaces (i + 1) else i in
  let read_int i =
    let j = ref i in
    while !j < len && not (is_space line.[!j]) do
      incr j
    done;
    let tok = String.sub line i (!j - i) in
    match int_of_string_opt tok with
    | Some v when v >= 0 && v <= max_node_id -> (v, !j)
    | Some v when v < 0 -> fail (Printf.sprintf "negative node id %S" tok)
    | Some _ -> fail (Printf.sprintf "node id %S exceeds the %d limit" tok max_node_id)
    | None -> fail (Printf.sprintf "expected a node id, got %S" tok)
  in
  let i = skip_spaces 0 in
  if i >= len || line.[i] = '#' then ()
  else begin
    let u, i = read_int i in
    let i = skip_spaces i in
    if i >= len then Builder.add_node builder u
    else begin
      let v, i = read_int i in
      let i = skip_spaces i in
      if i < len then fail "trailing characters after edge";
      Builder.add_edge builder u v
    end
  end

let parse_string ?(file = "<string>") s =
  Io_error.structured ~file (fun () ->
      let builder = Builder.create () in
      let lines = String.split_on_char '\n' s in
      List.iteri (fun i line -> parse_line builder ~file (i + 1) line) lines;
      Builder.build builder)

let load path =
  let ic = open_in path in
  (* only End_of_file is caught by the read loop — a parse failure
     propagates with the channel closed by the protect, never silently
     truncating the graph *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Io_error.structured ~file:path (fun () ->
          let builder = Builder.create () in
          let lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr lineno;
               parse_line builder ~file:path !lineno line
             done
           with End_of_file -> ());
          Builder.build builder))

let to_string g =
  let buf = Buffer.create (16 * (Graph.m g + 2)) in
  Buffer.add_string buf
    (Printf.sprintf "# undirected graph: %d nodes, %d edges\n" (Graph.n g) (Graph.m g));
  (* isolated nodes first so they are not lost on a round trip *)
  Graph.iter_nodes
    (fun v -> if Graph.degree g v = 0 then Buffer.add_string buf (Printf.sprintf "%d\n" v))
    g;
  Graph.iter_edges (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)) g;
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
