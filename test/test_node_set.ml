(* Node_set: unit tests plus model-based property tests against
   Set.Make(Int) — the set algebra here underpins every algorithm. *)

module NS = Sgraph.Node_set
module IS = Set.Make (Int)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let ns = Test_support.ns

let of_l = NS.of_list

let unit_tests =
  [
    Alcotest.test_case "of_list sorts and dedups" `Quick (fun () ->
        check ns "sorted" (of_l [ 1; 2; 3 ]) (of_l [ 3; 1; 2; 3; 1 ]));
    Alcotest.test_case "empty" `Quick (fun () ->
        check bool "is_empty" true (NS.is_empty NS.empty);
        check int "cardinal" 0 (NS.cardinal NS.empty));
    Alcotest.test_case "singleton" `Quick (fun () ->
        check ns "one element" (of_l [ 7 ]) (NS.singleton 7);
        check bool "mem" true (NS.mem 7 (NS.singleton 7)));
    Alcotest.test_case "mem binary search" `Quick (fun () ->
        let s = of_l [ 2; 4; 6; 8; 10 ] in
        List.iter (fun v -> check bool "member" true (NS.mem v s)) [ 2; 4; 6; 8; 10 ];
        List.iter (fun v -> check bool "absent" false (NS.mem v s)) [ 1; 3; 5; 9; 11; 0 ]);
    Alcotest.test_case "add keeps order" `Quick (fun () ->
        check ns "middle" (of_l [ 1; 2; 3 ]) (NS.add 2 (of_l [ 1; 3 ]));
        check ns "front" (of_l [ 0; 1; 3 ]) (NS.add 0 (of_l [ 1; 3 ]));
        check ns "back" (of_l [ 1; 3; 9 ]) (NS.add 9 (of_l [ 1; 3 ])));
    Alcotest.test_case "add existing is identity" `Quick (fun () ->
        let s = of_l [ 1; 2 ] in
        check ns "unchanged" s (NS.add 1 s));
    Alcotest.test_case "remove" `Quick (fun () ->
        check ns "middle" (of_l [ 1; 3 ]) (NS.remove 2 (of_l [ 1; 2; 3 ]));
        check ns "absent" (of_l [ 1; 2 ]) (NS.remove 5 (of_l [ 1; 2 ])));
    Alcotest.test_case "union basic" `Quick (fun () ->
        check ns "overlap" (of_l [ 1; 2; 3; 4 ]) (NS.union (of_l [ 1; 2; 3 ]) (of_l [ 2; 3; 4 ])));
    Alcotest.test_case "inter basic" `Quick (fun () ->
        check ns "overlap" (of_l [ 2; 3 ]) (NS.inter (of_l [ 1; 2; 3 ]) (of_l [ 2; 3; 4 ]));
        check ns "disjoint" NS.empty (NS.inter (of_l [ 1 ]) (of_l [ 2 ])));
    Alcotest.test_case "inter galloping path (size ratio > 16)" `Quick (fun () ->
        let big = NS.range 0 1000 in
        let small = of_l [ -5; 3; 500; 999; 1005 ] in
        check ns "gallop" (of_l [ 3; 500; 999 ]) (NS.inter small big);
        check ns "gallop (swapped)" (of_l [ 3; 500; 999 ]) (NS.inter big small));
    Alcotest.test_case "diff basic" `Quick (fun () ->
        check ns "basic" (of_l [ 1 ]) (NS.diff (of_l [ 1; 2; 3 ]) (of_l [ 2; 3; 4 ])));
    Alcotest.test_case "diff galloping path" `Quick (fun () ->
        let big = NS.range 0 1000 in
        let small = of_l [ 0; 999 ] in
        check int "drop two" 998 (NS.cardinal (NS.diff big small));
        check ns "small minus big" NS.empty (NS.diff small big));
    Alcotest.test_case "subset" `Quick (fun () ->
        check bool "yes" true (NS.subset (of_l [ 1; 3 ]) (of_l [ 1; 2; 3 ]));
        check bool "no" false (NS.subset (of_l [ 1; 4 ]) (of_l [ 1; 2; 3 ]));
        check bool "empty subset" true (NS.subset NS.empty (of_l [ 1 ]));
        check bool "not superset" false (NS.subset (of_l [ 1; 2 ]) (of_l [ 1 ])));
    Alcotest.test_case "disjoint" `Quick (fun () ->
        check bool "yes" true (NS.disjoint (of_l [ 1; 3 ]) (of_l [ 2; 4 ]));
        check bool "no" false (NS.disjoint (of_l [ 1; 3 ]) (of_l [ 3 ]));
        check bool "empty" true (NS.disjoint NS.empty NS.empty));
    Alcotest.test_case "compare is lexicographic" `Quick (fun () ->
        check bool "{1,2} < {1,2,3}" true (NS.compare (of_l [ 1; 2 ]) (of_l [ 1; 2; 3 ]) < 0);
        check bool "{1,4} > {1,2,3}" true (NS.compare (of_l [ 1; 4 ]) (of_l [ 1; 2; 3 ]) > 0);
        check int "equal" 0 (NS.compare (of_l [ 1; 2 ]) (of_l [ 2; 1 ]));
        check bool "empty least" true (NS.compare NS.empty (of_l [ 0 ]) < 0));
    Alcotest.test_case "min/max/nth/choose" `Quick (fun () ->
        let s = of_l [ 5; 1; 9 ] in
        check int "min" 1 (NS.min_elt s);
        check int "max" 9 (NS.max_elt s);
        check int "nth 1" 5 (NS.nth s 1);
        check int "choose deterministic" 1 (NS.choose s));
    Alcotest.test_case "min on empty raises" `Quick (fun () ->
        Alcotest.check_raises "Not_found" Not_found (fun () -> ignore (NS.min_elt NS.empty)));
    Alcotest.test_case "nth out of bounds raises" `Quick (fun () ->
        Alcotest.check_raises "oob" (Invalid_argument "Node_set.nth: out of bounds")
          (fun () -> ignore (NS.nth (of_l [ 1 ]) 1)));
    Alcotest.test_case "iter ascending" `Quick (fun () ->
        let acc = ref [] in
        NS.iter (fun v -> acc := v :: !acc) (of_l [ 3; 1; 2 ]);
        check (Alcotest.list int) "ascending" [ 1; 2; 3 ] (List.rev !acc));
    Alcotest.test_case "fold / for_all / exists / filter" `Quick (fun () ->
        let s = of_l [ 1; 2; 3; 4 ] in
        check int "sum" 10 (NS.fold ( + ) s 0);
        check bool "all positive" true (NS.for_all (fun v -> v > 0) s);
        check bool "exists even" true (NS.exists (fun v -> v mod 2 = 0) s);
        check ns "evens" (of_l [ 2; 4 ]) (NS.filter (fun v -> v mod 2 = 0) s));
    Alcotest.test_case "inter_cardinal and diff_cardinal" `Quick (fun () ->
        let a = of_l [ 1; 2; 3; 4; 5 ] and b = of_l [ 4; 5; 6 ] in
        check int "inter" 2 (NS.inter_cardinal a b);
        check int "diff" 3 (NS.diff_cardinal a b);
        let big = NS.range 0 500 in
        check int "gallop inter" 1 (NS.inter_cardinal (of_l [ 4; 700 ]) big);
        check int "gallop inter swapped" 1 (NS.inter_cardinal big (of_l [ 4; 700 ])));
    Alcotest.test_case "range" `Quick (fun () ->
        check ns "0..3" (of_l [ 0; 1; 2 ]) (NS.range 0 3);
        check ns "empty" NS.empty (NS.range 5 5);
        check ns "reversed empty" NS.empty (NS.range 7 3));
    Alcotest.test_case "to_array is a safe copy" `Quick (fun () ->
        let s = of_l [ 1; 2 ] in
        let arr = NS.to_array s in
        arr.(0) <- 99;
        check ns "unchanged" (of_l [ 1; 2 ]) s);
    Alcotest.test_case "to_string" `Quick (fun () ->
        check Alcotest.string "pretty" "{1, 5, 9}" (NS.to_string (of_l [ 9; 1; 5 ]));
        check Alcotest.string "empty" "{}" (NS.to_string NS.empty));
    Alcotest.test_case "of_sorted_array_unchecked adopts the array" `Quick (fun () ->
        let s = NS.of_sorted_array_unchecked [| 1; 4; 8 |] in
        check int "cardinal" 3 (NS.cardinal s);
        check bool "mem" true (NS.mem 4 s);
        check ns "equal to of_list" (of_l [ 1; 4; 8 ]) s);
    Alcotest.test_case "operations on large sets" `Quick (fun () ->
        let rng = Scoll.Rng.create 55 in
        let a = NS.of_list (List.init 5000 (fun _ -> Scoll.Rng.int rng 20000)) in
        let b = NS.of_list (List.init 5000 (fun _ -> Scoll.Rng.int rng 20000)) in
        check int "inclusion-exclusion" (NS.cardinal (NS.union a b))
          (NS.cardinal a + NS.cardinal b - NS.inter_cardinal a b);
        check bool "diff disjoint from b" true (NS.disjoint (NS.diff a b) b);
        check bool "inter subset of both" true
          (NS.subset (NS.inter a b) a && NS.subset (NS.inter a b) b));
    Alcotest.test_case "queries allocate nothing" `Quick (fun () ->
        (* 1,000 calls of each query, on operands that take both the
           merge and the galloping branches: the only words allowed are
           the measurement's own float boxes *)
        let small = of_l [ 3; 40; 77; 150 ] in
        let big = NS.range 0 200 and shifted = NS.range 100 300 in
        let big' = NS.of_array (NS.to_array big) in
        let words f =
          let before = Gc.minor_words () in
          for _ = 1 to 1000 do
            f ()
          done;
          Gc.minor_words () -. before
        in
        List.iter
          (fun (name, f) ->
            let w = words f in
            if w > 16. then Alcotest.failf "%s: %.0f minor words for 1,000 calls" name w)
          [
            ("mem", fun () -> ignore (Sys.opaque_identity (NS.mem 77 big)));
            ("add of a member", fun () -> ignore (Sys.opaque_identity (NS.add 77 big)));
            ("equal", fun () -> ignore (Sys.opaque_identity (NS.equal big big')));
            ("compare", fun () -> ignore (Sys.opaque_identity (NS.compare big big')));
            ("subset (merge)", fun () -> ignore (Sys.opaque_identity (NS.subset big big')));
            ( "subset (gallop)",
              fun () -> ignore (Sys.opaque_identity (NS.subset small big)) );
            ( "disjoint (merge)",
              fun () -> ignore (Sys.opaque_identity (NS.disjoint big shifted)) );
            ( "disjoint (gallop)",
              fun () -> ignore (Sys.opaque_identity (NS.disjoint small shifted)) );
            ( "inter_cardinal (merge)",
              fun () -> ignore (Sys.opaque_identity (NS.inter_cardinal big shifted)) );
            ( "inter_cardinal (gallop)",
              fun () -> ignore (Sys.opaque_identity (NS.inter_cardinal small big)) );
          ]);
  ]

(* model-based properties against Set.Make(Int) *)

let arb_int_list = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 60))

let model_property name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name
       QCheck2.Gen.(pair arb_int_list arb_int_list)
       f)

let to_model l = IS.of_list l

let prop_tests =
  [
    model_property "union agrees with Set" (fun (a, b) ->
        NS.to_list (NS.union (of_l a) (of_l b)) = IS.elements (IS.union (to_model a) (to_model b)));
    model_property "inter agrees with Set" (fun (a, b) ->
        NS.to_list (NS.inter (of_l a) (of_l b)) = IS.elements (IS.inter (to_model a) (to_model b)));
    model_property "diff agrees with Set" (fun (a, b) ->
        NS.to_list (NS.diff (of_l a) (of_l b)) = IS.elements (IS.diff (to_model a) (to_model b)));
    model_property "subset agrees with Set" (fun (a, b) ->
        NS.subset (of_l a) (of_l b) = IS.subset (to_model a) (to_model b));
    model_property "disjoint agrees with Set" (fun (a, b) ->
        NS.disjoint (of_l a) (of_l b) = IS.disjoint (to_model a) (to_model b));
    model_property "inter_cardinal consistent with inter" (fun (a, b) ->
        NS.inter_cardinal (of_l a) (of_l b) = NS.cardinal (NS.inter (of_l a) (of_l b)));
    model_property "diff_cardinal consistent with diff" (fun (a, b) ->
        NS.diff_cardinal (of_l a) (of_l b) = NS.cardinal (NS.diff (of_l a) (of_l b)));
    model_property "compare is a total order consistent with equal" (fun (a, b) ->
        let sa = of_l a and sb = of_l b in
        (NS.compare sa sb = 0) = NS.equal sa sb
        && NS.compare sa sb = -NS.compare sb sa);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"of_list agrees with Set on long lists"
         QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 500))
         (fun l -> NS.to_list (of_l l) = IS.elements (to_model l)));
    model_property "compare is lexicographic on the elements" (fun (a, b) ->
        let sign x = Int.compare x 0 in
        sign (NS.compare (of_l a) (of_l b))
        = sign
            (List.compare Int.compare (IS.elements (to_model a)) (IS.elements (to_model b))));
    model_property "add/remove roundtrip" (fun (a, b) ->
        let s = of_l a in
        match b with
        | [] -> true
        | v :: _ -> NS.equal (NS.remove v (NS.add v s)) (NS.remove v s));
  ]

let suites = [ ("node_set", unit_tests); ("node_set_properties", prop_tests) ]
