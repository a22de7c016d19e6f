type t = { off : int array; nbr : int array }

let of_rows rows =
  let n = Array.length rows in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length rows.(v)
  done;
  let nbr = Array.make off.(n) 0 in
  Array.iteri (fun v r -> Array.blit r 0 nbr off.(v) (Array.length r)) rows;
  { off; nbr }

let n t = Array.length t.off - 1

let entries t = Array.length t.nbr

let of_arrays ~offsets ~adjacency =
  let len = Array.length offsets in
  if len = 0 then invalid_arg "Csr.of_arrays: empty offsets";
  if offsets.(0) <> 0 then invalid_arg "Csr.of_arrays: offsets must start at 0";
  for i = 1 to len - 1 do
    if offsets.(i) < offsets.(i - 1) then
      invalid_arg
        (Printf.sprintf "Csr.of_arrays: offsets decrease at %d (%d < %d)" i offsets.(i)
           offsets.(i - 1))
  done;
  if offsets.(len - 1) <> Array.length adjacency then
    invalid_arg
      (Printf.sprintf "Csr.of_arrays: offsets end at %d but adjacency has %d entries"
         offsets.(len - 1) (Array.length adjacency));
  { off = offsets; nbr = adjacency }

let offsets t = t.off

let adjacency t = t.nbr

let degree t v = t.off.(v + 1) - t.off.(v)

let row t v = Array.sub t.nbr t.off.(v) (degree t v)

let to_rows t = Array.init (n t) (row t)

(* SAFETY: [lo, hi) comes from two reads of the offsets array (which
   bounds-checks v), and of_arrays/of_rows guarantee every offset is a
   valid index into [nbr], so all unsafe_get indices are in range *)
let iter_row f t v =
  let hi = t.off.(v + 1) in
  for i = t.off.(v) to hi - 1 do
    f (Array.unsafe_get t.nbr i)
  done

(* SAFETY: same bounds argument as [iter_row] *)
let fold_row f init t v =
  let hi = t.off.(v + 1) in
  let acc = ref init in
  for i = t.off.(v) to hi - 1 do
    acc := f !acc (Array.unsafe_get t.nbr i)
  done;
  !acc

(* SAFETY: the search interval [lo, hi) starts as row v's offset range
   (valid nbr indices, see iter_row) and only ever shrinks *)
let mem_row t v x =
  let nbr = t.nbr in
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let y = Array.unsafe_get nbr mid in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
  in
  go t.off.(v) t.off.(v + 1)

(* N^2(v) = N(v) ∪ the rows of v's neighbors, minus v, which every
   neighbor's row holds: one loop over the rows, so no per-element call
   leaves the module *)
let scatter_ball2 t v ~(rank : int array) ~(into : int array) ~off =
  let o = t.off and a = t.nbr in
  let[@inline] set x =
    let l = rank.(x) in
    if l >= 0 then begin
      let j = off + (l lsr 5) in
      into.(j) <- into.(j) lor (1 lsl (l land 31))
    end
  in
  for i = o.(v) to o.(v + 1) - 1 do
    let w = a.(i) in
    set w;
    for k = o.(w) to o.(w + 1) - 1 do
      set a.(k)
    done
  done;
  let l = rank.(v) in
  if l >= 0 then begin
    let j = off + (l lsr 5) in
    into.(j) <- into.(j) land lnot (1 lsl (l land 31))
  end

let int_array_equal (a : int array) (b : int array) =
  let len = Array.length a in
  len = Array.length b
  &&
  let rec go i = i >= len || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let equal a b = int_array_equal a.off b.off && int_array_equal a.nbr b.nbr
