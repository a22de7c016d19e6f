(* string-specialized table: the functor pins hashing and equality to
   String's own, keeping lookups off the polymorphic runtime primitives *)
module Tbl = Hashtbl.Make (String)

(* [mark]: [set_max] has written the value, so it is a high-water mark *)
type counter = { name : string; mutable value : int; mutable mark : bool }

type t = counter Tbl.t

let create () : t = Tbl.create 32

let counter t name =
  match Tbl.find_opt t name with
  | Some c -> c
  | None ->
      let c = { name; value = 0; mark = false } in
      Tbl.add t name c;
      c

let incr c = c.value <- c.value + 1

let add c n = c.value <- c.value + n

let set c n = c.value <- n

let set_max c n =
  c.mark <- true;
  if n > c.value then c.value <- n

let value c = c.value

let name c = c.name

let find t name = Option.map (fun c -> c.value) (Tbl.find_opt t name)

let to_list t =
  Tbl.fold (fun name c acc -> (name, c.value) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into ~into src =
  Tbl.iter
    (fun name c ->
      let d = counter into name in
      if c.mark then set_max d c.value else add d c.value)
    src
