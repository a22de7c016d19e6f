(* Pins the nearest-rank rule every reported percentile goes through. *)

let check label got want =
  if not (Int.equal got want) then begin
    Printf.eprintf "%s: got %d, want %d\n" label got want;
    exit 1
  end

let check_f label got want =
  if not (Float.equal got want) then begin
    Printf.eprintf "%s: got %g, want %g\n" label got want;
    exit 1
  end

let () =
  (* rank = ceil (p * n / 100), 1-based *)
  check "p50 of 1" (Pct.rank ~p:50 1) 1;
  check "p99 of 1" (Pct.rank ~p:99 1) 1;
  check "p50 of 2" (Pct.rank ~p:50 2) 1;
  check "p50 of 10" (Pct.rank ~p:50 10) 5;
  check "p50 of 101" (Pct.rank ~p:50 101) 51;
  check "p90 of 100" (Pct.rank ~p:90 100) 90;
  check "p90 of 101" (Pct.rank ~p:90 101) 91;
  check "p99 of 1000" (Pct.rank ~p:99 1000) 990;
  check "p99 of 999" (Pct.rank ~p:99 999) 990;
  check "p100 of 7" (Pct.rank ~p:100 7) 7;
  (* the sample-count rule: 10 beyond p90 needs 100 samples, beyond p99 1000 *)
  check "beyond p90 of 100" (Pct.beyond ~p:90 100) 10;
  check "beyond p90 of 99" (Pct.beyond ~p:90 99) 9;
  check "beyond p99 of 1000" (Pct.beyond ~p:99 1000) 10;
  check "beyond p99 of 999" (Pct.beyond ~p:99 999) 9;
  (* a percentile is a measured sample, never an interpolation *)
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  check_f "median of 5" (Pct.median xs) 3.;
  check_f "p90 of 5" (Pct.percentile ~p:90 xs) 5.;
  check_f "p20 of 5" (Pct.percentile ~p:20 xs) 1.;
  check_f "median of 4" (Pct.median [| 4.; 1.; 3.; 2. |]) 2.;
  check_f "input untouched" xs.(0) 5.;
  let bad f = match f () with _ -> false | exception Invalid_argument _ -> true in
  if not (bad (fun () -> Pct.rank ~p:50 0) && bad (fun () -> Pct.rank ~p:0 5)
          && bad (fun () -> Pct.rank ~p:101 5))
  then begin
    prerr_endline "out-of-range rank accepted";
    exit 1
  end
