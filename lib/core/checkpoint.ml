module Node_set = Sgraph.Node_set
module Stream = Result_io.Stream

type state =
  | Roots of { retired : int list }
  | Pd_frontier of { index : Node_set.t list; queue : Node_set.t list }
  | Brute_mask of { next_mask : int }

type t = {
  algorithm : string;
  s : int;
  n : int;
  m : int;
  min_size : int;
  emitted : int;
  state : state;
}

let family = function
  | Roots _ -> "roots"
  | Pd_frontier _ -> "pd"
  | Brute_mask _ -> "brute"

(* Bounded record sizes: a retired-roots list over a large graph is split
   into chunks so no single record grows with the graph. *)
let chunk n xs =
  let rec go acc cur k = function
    | [] ->
        List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let ids_payload tag ids = String.concat " " (tag :: List.map string_of_int ids)

let save ?fault t path =
  let header =
    Printf.sprintf "H %s %s %d %d %d %d %d" t.algorithm (family t.state) t.s t.n t.m
      t.min_size t.emitted
  in
  let body =
    match t.state with
    | Roots { retired } -> List.map (ids_payload "R") (chunk 4096 retired)
    | Pd_frontier { index; queue } ->
        List.map (fun set -> ids_payload "I" (Node_set.to_list set)) index
        @ List.map (fun set -> ids_payload "Q" (Node_set.to_list set)) queue
    | Brute_mask { next_mask } -> [ Printf.sprintf "M %d" next_mask ]
  in
  (* the atomic commit: a reader sees either the whole previous
     checkpoint or the whole new one, never a mixture *)
  Sgraph.Codec.durable_replace ?fault ~site:"ckpt" path (fun oc ->
      output_string oc Stream.magic;
      List.iter
        (fun r -> output_string oc (Stream.encode_record r))
        ((header :: body) @ [ "E" ]))

let corrupt path msg = Sgraph.Io_error.fail ~file:path ~line:0 ("corrupt checkpoint: " ^ msg)

let split payload =
  List.filter (fun tok -> String.length tok > 0) (String.split_on_char ' ' payload)

let ints path toks =
  List.map
    (fun tok ->
      match int_of_string_opt tok with
      | Some v -> v
      | None -> corrupt path ("bad integer " ^ tok))
    toks

let of_string ~file:path src =
  let records, _, tail = Stream.records_of_string ~file:path src in
  (* checkpoints are committed by durable replace, so a torn checkpoint
     was never legitimately written: this format refuses the torn tail
     its SCLQS1 framing would tolerate, rather than silently resume less *)
  (match tail with `Torn -> corrupt path "torn tail" | `Clean -> ());
  match records with
  | [] -> corrupt path "empty"
  | header :: rest ->
      let make, fam =
        match split header with
        | [ "H"; alg; fam; s; n; m; min_size; emitted ] -> (
            match ints path [ s; n; m; min_size; emitted ] with
            | [ s; n; m; min_size; emitted ] ->
                ( (fun state -> { algorithm = alg; s; n; m; min_size; emitted; state }),
                  fam )
            | _ -> corrupt path "bad header")
        | _ -> corrupt path "bad header"
      in
      let body, last =
        match List.rev rest with
        | last :: body_rev -> (List.rev body_rev, last)
        | [] -> corrupt path "missing end record"
      in
      (match split last with
      | [ "E" ] -> ()
      | _ -> corrupt path "missing end record");
      let state =
        match fam with
        | "roots" ->
            Roots
              {
                retired =
                  List.concat_map
                    (fun r ->
                      match split r with
                      | "R" :: ids -> ints path ids
                      | _ -> corrupt path "expected a roots record")
                    body;
              }
        | "pd" ->
            let index = ref [] and queue = ref [] in
            List.iter
              (fun r ->
                match split r with
                | "I" :: ids -> index := Node_set.of_list (ints path ids) :: !index
                | "Q" :: ids -> queue := Node_set.of_list (ints path ids) :: !queue
                | _ -> corrupt path "expected an index/queue record")
              body;
            Pd_frontier { index = List.rev !index; queue = List.rev !queue }
        | "brute" -> (
            match body with
            | [ m ] -> (
                match split m with
                | [ "M"; v ] -> (
                    match int_of_string_opt v with
                    | Some next_mask -> Brute_mask { next_mask }
                    | None -> corrupt path "bad mask record")
                | _ -> corrupt path "bad mask record")
            | _ -> corrupt path "expected exactly one mask record")
        | other -> corrupt path ("unknown state family " ^ other)
      in
      make state

let load path = of_string ~file:path (Sgraph.Codec.read_file path)

let check_compat t ~s ~n ~m ~min_size =
  let mismatch what ckpt cur =
    failwith
      (Printf.sprintf
         "checkpoint mismatch: %s is %d in the checkpoint but %d in this run" what
         ckpt cur)
  in
  if t.s <> s then mismatch "s" t.s s;
  if t.n <> n then mismatch "node count" t.n n;
  if t.m <> m then mismatch "edge count" t.m m;
  if t.min_size <> min_size then mismatch "min_size" t.min_size min_size
