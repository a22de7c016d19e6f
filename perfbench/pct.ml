let rank ~p n =
  if n < 1 then invalid_arg "Pct.rank: no samples";
  if p < 1 || p > 100 then invalid_arg "Pct.rank: p outside 1..100";
  (* integer ceiling: no float rounding can move a rank *)
  Int.max 1 (Int.min n (((p * n) + 99) / 100))

let beyond ~p n = n - rank ~p n

let percentile ~p samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.(rank ~p (Array.length sorted) - 1)

let median samples = percentile ~p:50 samples
