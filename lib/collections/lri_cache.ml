(* Keys are pinned to [int]: every consumer caches per-node data, so the
   tables are [Hashtbl.Make] over ints with an int equality and the
   identity hash. The generic [Hashtbl] would call the polymorphic
   runtime hash and compare on every lookup, whatever the key type.
   Node ids are dense, so the identity hash spreads them evenly. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (k : int) = k land max_int
end)

type 'v t = {
  capacity : int;
  weight : 'v -> int;
  table : 'v Tbl.t;
  order : int Fifo_queue.t; (* insertion order; front = oldest *)
  stale : int Tbl.t;
  (* [Fifo_queue] has no random removal, so [remove] leaves the key's queue
     entry behind and records it here instead: [stale] maps a key to the
     number of queue entries that no longer correspond to a live binding.
     [evict_one] consumes these counters silently — otherwise a key that is
     removed and later re-added would be evicted on its orphaned (older)
     queue slot instead of its real insertion rank. *)
  mutable total_weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int }

let create ?(weight = fun _ -> 0) ~capacity () =
  if capacity < 0 then invalid_arg "Lri_cache.create: negative capacity";
  {
    capacity;
    weight;
    table = Tbl.create (max 16 (min capacity 65536));
    order = Fifo_queue.create ();
    stale = Tbl.create 16;
    total_weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity

let length t = Tbl.length t.table

let total_weight t = t.total_weight

let find_opt t k =
  match Tbl.find_opt t.table k with
  | Some _ as r ->
      t.hits <- t.hits + 1;
      r
  | None ->
      t.misses <- t.misses + 1;
      None

(* [Tbl.find] returns the bound value itself, where [find_opt] boxes it
   in a [Some]: a hit allocates nothing *)
let find_or t k ~default =
  match Tbl.find t.table k with
  | v ->
      t.hits <- t.hits + 1;
      v
  | exception Not_found ->
      t.misses <- t.misses + 1;
      default

let mem t k = Tbl.mem t.table k

let rec evict_one t =
  match Fifo_queue.pop_opt t.order with
  | None -> ()
  | Some oldest -> (
      match Tbl.find_opt t.stale oldest with
      | Some c ->
          (* orphaned slot left behind by [remove]; consume it silently *)
          if c = 1 then Tbl.remove t.stale oldest
          else Tbl.replace t.stale oldest (c - 1);
          evict_one t
      | None -> (
          match Tbl.find_opt t.table oldest with
          | Some old ->
              t.total_weight <- t.total_weight - t.weight old;
              Tbl.remove t.table oldest;
              t.evictions <- t.evictions + 1
          | None -> evict_one t))

let add t k v =
  if t.capacity > 0 then begin
    match Tbl.find_opt t.table k with
    | Some old ->
        t.total_weight <- t.total_weight - t.weight old + t.weight v;
        Tbl.replace t.table k v
    | None ->
        if Tbl.length t.table >= t.capacity then evict_one t;
        t.total_weight <- t.total_weight + t.weight v;
        Tbl.replace t.table k v;
        Fifo_queue.push t.order k
  end

let remove t k =
  match Tbl.find_opt t.table k with
  | None -> ()
  | Some old ->
      t.total_weight <- t.total_weight - t.weight old;
      Tbl.remove t.table k;
      (* the key's queue entry stays behind; flag it as orphaned. Any stale
         entries for [k] sit ahead of the live one in FIFO order, so
         [evict_one] consuming counters front-first matches them exactly. *)
      let c = match Tbl.find_opt t.stale k with None -> 0 | Some c -> c in
      Tbl.replace t.stale k (c + 1)

let fold f t init = Tbl.fold f t.table init

let find_or_add t k ~compute =
  match find_opt t k with
  | Some v -> v
  | None ->
      let v = compute k in
      add t k v;
      v

let clear t =
  Tbl.reset t.table;
  Fifo_queue.clear t.order;
  Tbl.reset t.stale;
  t.total_weight <- 0

let stats (t : _ t) = { hits = t.hits; misses = t.misses; evictions = t.evictions }
