type span = {
  id : int;
  parent : int;
  name : string;
  item : int;
  start : float;
  stop : float;
}

type t = { enabled : bool; mutable stack : int list; mutable closed : span list }

(* ids are unique across tracers, so spans of several threads can be
   merged into one parent map *)
let next_id = Atomic.make 1

let create enabled = { enabled; stack = []; closed = [] }

let on t = t.enabled

let now = Scliques_obs.Clock.now

let span t ?(item = -1) name f =
  if not t.enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close () =
      let stop = now () in
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      t.closed <- { id; parent; name; item; start; stop } :: t.closed
    in
    Fun.protect ~finally:close f
  end

let spans ts =
  List.sort
    (fun a b -> Float.compare a.start b.start)
    (List.concat_map (fun t -> t.closed) ts)

let ms a = (a.stop -. a.start) *. 1000.

let self_ms spans =
  let self = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace self s.id (ms s)) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.parent with
      | Some v -> Hashtbl.replace self s.parent (v -. ms s)
      | None -> ())
    spans;
  self

let per_op_ms spans ~self ~op name =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let totals = Hashtbl.create 16 in
  let ops = List.filter (fun s -> String.equal s.name op) spans in
  List.iter (fun s -> Hashtbl.replace totals s.id 0.) ops;
  (* walk up to the nearest enclosing [op] span *)
  let rec op_of id =
    match Hashtbl.find_opt by_id id with
    | None -> None
    | Some s when String.equal s.name op -> Some s.id
    | Some s -> op_of s.parent
  in
  List.iter
    (fun s ->
      if String.equal s.name name then
        match op_of s.id with
        | None -> ()
        | Some o ->
            let v =
              match self with
              | Some tbl -> Option.value (Hashtbl.find_opt tbl s.id) ~default:0.
              | None -> ms s
            in
            Hashtbl.replace totals o (Hashtbl.find totals o +. v))
    spans;
  Array.of_list (List.map (fun s -> Hashtbl.find totals s.id) ops)

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"item\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.parent s.name s.item s.start s.stop)
        spans)
