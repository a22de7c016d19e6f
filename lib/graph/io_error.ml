exception Parse_error of { file : string; line : int; msg : string }

let fail ~file ~line msg = raise (Parse_error { file; line; msg })

let failf ~file ~line fmt = Printf.ksprintf (fun msg -> fail ~file ~line msg) fmt

let to_string ~file ~line msg =
  if line = 0 then Printf.sprintf "%s: %s" file msg
  else Printf.sprintf "%s:%d: %s" file line msg

let message = function
  | Parse_error { file; line; msg } -> Some (to_string ~file ~line msg)
  | _ -> None

let structured ~file f =
  try f () with
  | Parse_error _ as e -> raise e
  | Sys_error _ as e -> raise e
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
      raise
        (Parse_error
           { file; line = 0; msg = "unexpected parser failure: " ^ Printexc.to_string e })
