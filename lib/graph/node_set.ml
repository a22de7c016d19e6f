type t = int array (* sorted, distinct *)

(* Every function below pins its parameters to [t]: the mli constrains
   only the external signature, so an unannotated body would generalize
   to ['a array] and compile each element comparison as a call to the
   polymorphic runtime compare -- an order of magnitude slower than the
   int compare these merges are meant to be. *)

let empty = [||]

let singleton v = [| v |]

let dedup_sorted (arr : t) =
  let n = Array.length arr in
  if n = 0 then arr
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if arr.(r) <> arr.(!w - 1) then begin
        arr.(!w) <- arr.(r);
        incr w
      end
    done;
    if !w = n then arr else Array.sub arr 0 !w
  end

(* Int-specialized sort: insertion sort on short runs, top-down merges
   above them through one scratch array. [Array.sort Int.compare] is a
   heap sort that calls the comparison closure on every step; every
   BFS ball passes through here on a cache miss. *)
let insertion_sort (a : t) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let rec merge_sort (a : t) (tmp : t) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort a tmp lo mid;
    merge_sort a tmp mid hi;
    if a.(mid - 1) > a.(mid) then begin
      (* merge tmp.(lo..mid) with a.(mid..hi) back into a.(lo..) *)
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        let x = tmp.(!i) and y = a.(!j) in
        if x <= y then begin
          a.(!k) <- x;
          incr i
        end
        else begin
          a.(!k) <- y;
          incr j
        end;
        incr k
      done;
      Array.blit tmp !i a !k (mid - !i)
    end
  end

let sort_ints (a : t) ~(tmp : t) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi else merge_sort a tmp lo hi

let of_array arr =
  let copy = Array.copy arr in
  let n = Array.length copy in
  if n <= 16 then insertion_sort copy 0 n else merge_sort copy (Array.make n 0) 0 n;
  dedup_sorted copy

let of_list l = of_array (Array.of_list l)

let of_sorted_array_unchecked arr = arr

let to_list = Array.to_list

let to_array = Array.copy

let cardinal = Array.length

let is_empty s = Array.length s = 0

(* The searches and scans below recurse at top level with every operand
   passed explicitly. A local [let rec go] over free variables would be
   a closure, and without flambda ocamlopt heap-allocates it on every
   call -- these run under every B-tree probe and galloping merge. *)

(* index of v in s.(lo..hi-1), or -1 *)
let rec search (v : int) (s : t) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = s.(mid) in
    if x = v then mid else if x < v then search v s (mid + 1) hi else search v s lo mid

let index_of v s = search v s 0 (Array.length s)

let mem v s = index_of v s >= 0

(* number of elements of s.(lo..hi-1) strictly below v, plus lo *)
let rec rank_in (v : int) (s : t) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if s.(mid) < v then rank_in v s (mid + 1) hi else rank_in v s lo mid

let rank v s = rank_in v s 0 (Array.length s)

let add v s =
  let i = rank v s in
  let n = Array.length s in
  if i < n && s.(i) = v then s
  else begin
    let out = Array.make (n + 1) v in
    Array.blit s 0 out 0 i;
    Array.blit s i out (i + 1) (n - i);
    out
  end

let remove v s =
  let i = index_of v s in
  if i < 0 then s
  else begin
    let n = Array.length s in
    let out = Array.make (n - 1) 0 in
    Array.blit s 0 out 0 i;
    Array.blit s (i + 1) out i (n - 1 - i);
    out
  end

let union (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr i
      end
      else if x > y then begin
        out.(!k) <- y;
        incr j
      end
      else begin
        out.(!k) <- x;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < na do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < nb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

(* When one operand is [gallop_ratio] times smaller, scanning the small one
   and binary searching the big one beats the linear merge. *)
let gallop_ratio = 16

let inter_merge (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if x > y then incr j
    else begin
      out.(!k) <- x;
      incr i;
      incr j;
      incr k
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let inter_gallop (small : t) (big : t) =
  let n = Array.length small in
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if mem small.(i) big then begin
      out.(!k) <- small.(i);
      incr k
    end
  done;
  if !k = n then out else Array.sub out 0 !k

let inter a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then empty
  else if na * gallop_ratio <= nb then inter_gallop a b
  else if nb * gallop_ratio <= na then inter_gallop b a
  else inter_merge a b

let diff (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then a
  else if nb * gallop_ratio <= na || na * gallop_ratio <= nb then begin
    (* scan a, binary search b *)
    let out = Array.make na 0 in
    let k = ref 0 in
    for i = 0 to na - 1 do
      if not (mem a.(i) b) then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = na then out else Array.sub out 0 !k
  end
  else begin
    let out = Array.make na 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr i;
        incr k
      end
      else if x > y then incr j
      else begin
        incr i;
        incr j
      end
    done;
    while !i < na do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    if !k = na then out else Array.sub out 0 !k
  end

(* number of a.(i..) members found in b by binary search *)
let rec count_mem (a : t) (b : t) i acc =
  if i >= Array.length a then acc
  else count_mem a b (i + 1) (if mem a.(i) b then acc + 1 else acc)

(* every a.(i..) member is in b, by binary search *)
let rec all_mem (a : t) (b : t) i =
  i >= Array.length a || (mem a.(i) b && all_mem a b (i + 1))

(* some a.(i..) member is in b, by binary search *)
let rec any_mem (a : t) (b : t) i =
  i < Array.length a && (mem a.(i) b || any_mem a b (i + 1))

let rec subset_merge (a : t) (b : t) i j =
  if i >= Array.length a then true
  else if j >= Array.length b then false
  else
    let x = a.(i) and y = b.(j) in
    if x = y then subset_merge a b (i + 1) (j + 1)
    else if x > y then subset_merge a b i (j + 1)
    else false

let subset (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else if na * gallop_ratio <= nb then all_mem a b 0
  else subset_merge a b 0 0

let rec disjoint_merge (a : t) (b : t) i j =
  if i >= Array.length a || j >= Array.length b then true
  else
    let x = a.(i) and y = b.(j) in
    if x = y then false
    else if x < y then disjoint_merge a b (i + 1) j
    else disjoint_merge a b i (j + 1)

let disjoint (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then true
  else if na * gallop_ratio <= nb then not (any_mem a b 0)
  else if nb * gallop_ratio <= na then not (any_mem b a 0)
  else disjoint_merge a b 0 0

(* explicit int loop, not structural (=) on the arrays: the polymorphic
   runtime compare walks both arrays through caml_compare *)
let rec equal_from (a : t) (b : t) i =
  i >= Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal (a : t) (b : t) = Array.length a = Array.length b && equal_from a b 0

let rec compare_from (a : t) (b : t) i =
  let na = Array.length a and nb = Array.length b in
  if i >= na then if i >= nb then 0 else -1
  else if i >= nb then 1
  else
    let x = a.(i) and y = b.(i) in
    if x < y then -1 else if x > y then 1 else compare_from a b (i + 1)

let compare a b = compare_from a b 0

let min_elt s = if Array.length s = 0 then raise Not_found else s.(0)

let max_elt s =
  let n = Array.length s in
  if n = 0 then raise Not_found else s.(n - 1)

let choose = min_elt

let nth s i =
  if i < 0 || i >= Array.length s then invalid_arg "Node_set.nth: out of bounds";
  s.(i)

let iter f s = Array.iter f s

let fold f s init = Array.fold_left (fun acc v -> f v acc) init s

let for_all = Array.for_all

let exists = Array.exists

let filter f s =
  let n = Array.length s in
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if f s.(i) then begin
      out.(!k) <- s.(i);
      incr k
    end
  done;
  if !k = n then s else Array.sub out 0 !k

let rec inter_cardinal_merge (a : t) (b : t) i j acc =
  if i >= Array.length a || j >= Array.length b then acc
  else
    let x = a.(i) and y = b.(j) in
    if x = y then inter_cardinal_merge a b (i + 1) (j + 1) (acc + 1)
    else if x < y then inter_cardinal_merge a b (i + 1) j acc
    else inter_cardinal_merge a b i (j + 1) acc

let inter_cardinal (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then 0
  else if na * gallop_ratio <= nb then count_mem a b 0 0
  else if nb * gallop_ratio <= na then count_mem b a 0 0
  else inter_cardinal_merge a b 0 0 0

let diff_cardinal a b = Array.length a - inter_cardinal a b

let range lo hi = if lo >= hi then empty else Array.init (hi - lo) (fun i -> lo + i)

(* ---------- bitset bridge ----------

   The enumeration hot paths intersect/difference the same mask (a ball,
   a frontier) against several sorted sets in a row; loading the mask once
   and filtering each set with O(1) word-indexed membership beats a merge
   per pair. The sorted-array representation stays the module boundary:
   these kernels take and return [t]. *)

let to_bitset s ~capacity =
  let b = Scoll.Bitset.create capacity in
  Array.iter (Scoll.Bitset.add b) s;
  b

let of_bitset b =
  let out = Array.make (Scoll.Bitset.cardinal b) 0 in
  let k = ref 0 in
  Scoll.Bitset.iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    b;
  out

let load_bitset mask ~prev s =
  (* reload a scratch mask: wipe [prev]'s footprint with one word store
     per member, then set [s] word-grouped (sorted invariant) — two
     direct loops, no per-element closure. Only valid when the mask's
     current contents are exactly [prev].
     SAFETY: caller guarantees members of [prev] and [s] are below the
     mask's capacity, the precondition of both Bitset kernels *)
  Scoll.Bitset.unsafe_zero_words mask prev;
  Scoll.Bitset.unsafe_load_sorted mask s

(* one direct loop over the members: per element, a cross-module call
   would cost more than the renumbering and the bit store together *)
let scatter_ranks (s : t) ~(rank : int array) ~(into : int array) ~off =
  for i = 0 to Array.length s - 1 do
    let l = rank.(s.(i)) in
    if l >= 0 then begin
      let j = off + (l lsr 5) in
      into.(j) <- into.(j) lor (1 lsl (l land 31))
    end
  done

let scatter_column (s : t) ~(slot : int array) ~(into : int array) ~stride ~off ~mask
    =
  for i = 0 to Array.length s - 1 do
    let l = slot.(s.(i)) in
    if l >= 0 then begin
      let j = off + (l * stride) in
      into.(j) <- into.(j) lor mask
    end
  done

let pp fmt s =
  Format.fprintf fmt "{";
  Array.iteri
    (fun i v -> if i = 0 then Format.fprintf fmt "%d" v else Format.fprintf fmt ", %d" v)
    s;
  Format.fprintf fmt "}"

let to_string s = Format.asprintf "%a" pp s
