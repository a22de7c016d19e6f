(* Parser robustness: arbitrary input must either parse or raise the
   parser's one documented exception with a diagnostic — never crash,
   assert, leak an untyped exception, or loop. *)

let printable_junk =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 200))

let binary_junk =
  (* arbitrary bytes, including NULs and newlines: models reading a file
     that is not text at all (e.g. handed a .png by mistake) *)
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200))

let lines_of_numbers =
  (* near-miss inputs: lines of numbers with occasional corruption *)
  let open QCheck2.Gen in
  let token = oneof [ map string_of_int (int_range (-5) 30); return "x"; return "" ] in
  let line = map (String.concat " ") (list_size (int_range 0 4) token) in
  map (String.concat "\n") (list_size (int_range 0 12) line)

let total ~ok_exn name parse gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name ~print:(Printf.sprintf "%S") gen
       (fun input ->
         match parse input with _ -> true | exception e -> ok_exn e))

(* Graph loaders promise exactly one exception type, with a non-empty
   message and the source name threaded through. *)
let structured_only = function
  | Sgraph.Io_error.Parse_error { file; line; msg } ->
      file = "<string>" && line >= 0 && String.length msg > 0
  | _ -> false

(* The result parser still reports via [Failure]. *)
let failure_only = function
  | Failure msg -> String.length msg > 0
  | _ -> false

let tests =
  [
    total ~ok_exn:structured_only "edge list parser is total on printable junk"
      Sgraph.Edge_list_io.parse_string printable_junk;
    total ~ok_exn:structured_only "edge list parser is total on binary junk"
      Sgraph.Edge_list_io.parse_string binary_junk;
    total ~ok_exn:structured_only "edge list parser is total on number soup"
      Sgraph.Edge_list_io.parse_string lines_of_numbers;
    total ~ok_exn:structured_only "METIS parser is total on printable junk"
      Sgraph.Metis_io.parse_string printable_junk;
    total ~ok_exn:structured_only "METIS parser is total on binary junk"
      Sgraph.Metis_io.parse_string binary_junk;
    total ~ok_exn:structured_only "METIS parser is total on number soup"
      Sgraph.Metis_io.parse_string lines_of_numbers;
    total ~ok_exn:failure_only "results parser is total on printable junk"
      (Scliques_core.Result_io.parse_string ~n:max_int) printable_junk;
    total ~ok_exn:failure_only "results parser is total on number soup"
      (Scliques_core.Result_io.parse_string ~n:max_int) lines_of_numbers;
  ]

let suites = [ ("parser_fuzz", tests) ]
