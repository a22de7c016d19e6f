(* Suites for Scoll: Rng, Bitset (unit + word-parallel kernel
   properties), Deque, Fifo_queue, Binary_heap, Btree, Lri_cache. *)

open Scoll

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- Rng ---------- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 123 and b = Rng.create 123 in
        for _ = 1 to 100 do
          check int "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        check bool "streams differ" true (sa <> sb));
    Alcotest.test_case "int stays in range" `Quick (fun () ->
        let r = Rng.create 99 in
        for _ = 1 to 10_000 do
          let v = Rng.int r 7 in
          check bool "0 <= v < 7" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "int covers the full range" `Quick (fun () ->
        let r = Rng.create 5 in
        let seen = Array.make 10 false in
        for _ = 1 to 1000 do
          seen.(Rng.int r 10) <- true
        done;
        check bool "all values hit" true (Array.for_all Fun.id seen));
    Alcotest.test_case "float stays in range" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.float r 2.5 in
          check bool "0 <= v < 2.5" true (v >= 0. && v < 2.5)
        done);
    Alcotest.test_case "bool takes both values" `Quick (fun () ->
        let r = Rng.create 11 in
        let trues = ref 0 in
        for _ = 1 to 1000 do
          if Rng.bool r then incr trues
        done;
        check bool "roughly balanced" true (!trues > 300 && !trues < 700));
    Alcotest.test_case "pair_distinct gives ordered distinct pairs" `Quick (fun () ->
        let r = Rng.create 8 in
        for _ = 1 to 1000 do
          let u, v = Rng.pair_distinct r 6 in
          check bool "u < v < 6" true (u >= 0 && u < v && v < 6)
        done);
    Alcotest.test_case "pair_distinct n=2 always (0,1)" `Quick (fun () ->
        let r = Rng.create 8 in
        for _ = 1 to 50 do
          check (Alcotest.pair int int) "only pair" (0, 1) (Rng.pair_distinct r 2)
        done);
    Alcotest.test_case "copy forks the stream" `Quick (fun () ->
        let a = Rng.create 7 in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        check int "copies agree" (Rng.int a 1000) (Rng.int b 1000));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Rng.create 21 in
        let arr = Array.init 50 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check (Alcotest.array int) "same elements" (Array.init 50 Fun.id) sorted);
    Alcotest.test_case "sample_without_replacement distinct sorted" `Quick (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 100 do
          let s = Rng.sample_without_replacement r ~k:5 ~n:12 in
          check int "k elements" 5 (Array.length s);
          for i = 0 to 3 do
            check bool "strictly increasing" true (s.(i) < s.(i + 1))
          done;
          Array.iter (fun v -> check bool "in range" true (v >= 0 && v < 12)) s
        done);
    Alcotest.test_case "sample k=n is everything" `Quick (fun () ->
        let r = Rng.create 4 in
        let s = Rng.sample_without_replacement r ~k:6 ~n:6 in
        check (Alcotest.array int) "identity" (Array.init 6 Fun.id) s);
    Alcotest.test_case "sample k=0 is empty" `Quick (fun () ->
        let r = Rng.create 4 in
        check int "empty" 0 (Array.length (Rng.sample_without_replacement r ~k:0 ~n:9)));
  ]

(* ---------- Bitset ---------- *)

let bitset_tests =
  [
    Alcotest.test_case "fresh set is empty" `Quick (fun () ->
        let b = Bitset.create 100 in
        check bool "empty" true (Bitset.is_empty b);
        check int "cardinal 0" 0 (Bitset.cardinal b));
    Alcotest.test_case "add and mem" `Quick (fun () ->
        let b = Bitset.create 200 in
        Bitset.add b 0;
        Bitset.add b 63;
        Bitset.add b 64;
        Bitset.add b 199;
        List.iter (fun i -> check bool "mem" true (Bitset.mem b i)) [ 0; 63; 64; 199 ];
        List.iter (fun i -> check bool "not mem" false (Bitset.mem b i)) [ 1; 62; 65; 198 ]);
    Alcotest.test_case "add is idempotent" `Quick (fun () ->
        let b = Bitset.create 10 in
        Bitset.add b 5;
        Bitset.add b 5;
        check int "cardinal" 1 (Bitset.cardinal b));
    Alcotest.test_case "remove" `Quick (fun () ->
        let b = Bitset.create 10 in
        Bitset.add b 5;
        Bitset.remove b 5;
        check bool "gone" false (Bitset.mem b 5);
        Bitset.remove b 5 (* removing twice is fine *));
    Alcotest.test_case "clear" `Quick (fun () ->
        let b = Bitset.create 100 in
        for i = 0 to 99 do
          Bitset.add b i
        done;
        Bitset.clear b;
        check bool "empty" true (Bitset.is_empty b));
    Alcotest.test_case "cardinal counts" `Quick (fun () ->
        let b = Bitset.create 1000 in
        for i = 0 to 999 do
          if i mod 3 = 0 then Bitset.add b i
        done;
        check int "334 multiples of 3 below 1000" 334 (Bitset.cardinal b));
    Alcotest.test_case "iter is sorted and complete" `Quick (fun () ->
        let b = Bitset.create 300 in
        let expected = [ 2; 64; 65; 128; 256; 299 ] in
        List.iter (Bitset.add b) (List.rev expected);
        check (Alcotest.list int) "sorted members" expected (Bitset.to_list b));
    Alcotest.test_case "add_all / remove_all" `Quick (fun () ->
        let b = Bitset.create 50 in
        Bitset.add_all b [| 1; 2; 3; 4 |];
        Bitset.remove_all b [| 2; 4 |];
        check (Alcotest.list int) "remaining" [ 1; 3 ] (Bitset.to_list b));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let b = Bitset.create 10 in
        Bitset.add b 3;
        let c = Bitset.copy b in
        Bitset.add c 4;
        check bool "original unchanged" false (Bitset.mem b 4);
        check bool "copy has both" true (Bitset.mem c 3 && Bitset.mem c 4));
    Alcotest.test_case "equal" `Quick (fun () ->
        let a = Bitset.create 10 and b = Bitset.create 10 in
        Bitset.add a 1;
        Bitset.add b 1;
        check bool "equal" true (Bitset.equal a b);
        Bitset.add b 2;
        check bool "not equal" false (Bitset.equal a b));
    Alcotest.test_case "out of bounds raises" `Quick (fun () ->
        let b = Bitset.create 10 in
        Alcotest.check_raises "mem 10" (Invalid_argument "Bitset: index 10 out of bounds [0, 10)")
          (fun () -> ignore (Bitset.mem b 10));
        Alcotest.check_raises "add -1" (Invalid_argument "Bitset: index -1 out of bounds [0, 10)")
          (fun () -> Bitset.add b (-1)));
    Alcotest.test_case "zero capacity" `Quick (fun () ->
        let b = Bitset.create 0 in
        check bool "empty" true (Bitset.is_empty b));
  ]

(* ---------- Bitset word-parallel kernels (QCheck vs sorted-list model) ----------

   The enumeration hot paths trust inter_into / union_into / diff_into /
   iter / fold and the Node_set bridge; each is pinned here against the
   obviously-correct sorted-list implementation on random sets. *)

let bitset_of_list cap l =
  let b = Bitset.create cap in
  List.iter (Bitset.add b) l;
  b

let sorted_dedup l = List.sort_uniq compare l

(* (capacity, members_a, members_b) with members in [0, capacity) *)
let gen_two_sets =
  let open QCheck2.Gen in
  int_range 1 200 >>= fun cap ->
  let members = list_size (int_range 0 60) (int_range 0 (cap - 1)) in
  members >>= fun a ->
  members >>= fun b -> return (cap, a, b)

let print_two_sets (cap, a, b) =
  Printf.sprintf "cap=%d a=[%s] b=[%s]" cap
    (String.concat ";" (List.map string_of_int a))
    (String.concat ";" (List.map string_of_int b))

let qtest ?(count = 300) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let kernel_tests =
  [
    qtest "inter_into = sorted-list inter" gen_two_sets print_two_sets
      (fun (cap, a, b) ->
        let ba = bitset_of_list cap a and bb = bitset_of_list cap b in
        Bitset.inter_into ~into:ba bb;
        Bitset.to_list ba
        = List.filter (fun v -> List.mem v b) (sorted_dedup a));
    qtest "union_into = sorted-list union" gen_two_sets print_two_sets
      (fun (cap, a, b) ->
        let ba = bitset_of_list cap a and bb = bitset_of_list cap b in
        Bitset.union_into ~into:ba bb;
        Bitset.to_list ba = sorted_dedup (a @ b));
    qtest "diff_into = sorted-list diff" gen_two_sets print_two_sets
      (fun (cap, a, b) ->
        let ba = bitset_of_list cap a and bb = bitset_of_list cap b in
        Bitset.diff_into ~into:ba bb;
        Bitset.to_list ba
        = List.filter (fun v -> not (List.mem v b)) (sorted_dedup a));
    qtest "inter commutes, union commutes" gen_two_sets print_two_sets
      (fun (cap, a, b) ->
        let ab = bitset_of_list cap a and ba = bitset_of_list cap b in
        Bitset.inter_into ~into:ab (bitset_of_list cap b);
        Bitset.inter_into ~into:ba (bitset_of_list cap a);
        let uab = bitset_of_list cap a and uba = bitset_of_list cap b in
        Bitset.union_into ~into:uab (bitset_of_list cap b);
        Bitset.union_into ~into:uba (bitset_of_list cap a);
        Bitset.equal ab ba && Bitset.equal uab uba);
    qtest "inter and union are idempotent" gen_two_sets print_two_sets
      (fun (cap, a, _) ->
        let orig = bitset_of_list cap a in
        let i = Bitset.copy orig and u = Bitset.copy orig in
        Bitset.inter_into ~into:i orig;
        Bitset.union_into ~into:u orig;
        Bitset.equal i orig && Bitset.equal u orig);
    qtest "diff self empties, diff empty is identity" gen_two_sets print_two_sets
      (fun (cap, a, _) ->
        let orig = bitset_of_list cap a in
        let d = Bitset.copy orig in
        Bitset.diff_into ~into:d orig;
        let e = Bitset.copy orig in
        Bitset.diff_into ~into:e (Bitset.create cap);
        Bitset.is_empty d && Bitset.equal e orig);
    qtest "iter is sorted; fold and cardinal agree" gen_two_sets print_two_sets
      (fun (cap, a, _) ->
        let b = bitset_of_list cap a in
        let seen = ref [] in
        Bitset.iter (fun i -> seen := i :: !seen) b;
        let members = List.rev !seen in
        members = sorted_dedup a
        && Bitset.fold (fun _ acc -> acc + 1) b 0 = Bitset.cardinal b
        && Bitset.cardinal b = List.length members);
    qtest "kernels on distinct capacities are rejected"
      QCheck2.Gen.(int_range 1 100 >>= fun c -> return (c, [], []))
      print_two_sets
      (fun (cap, _, _) ->
        let a = Bitset.create cap and b = Bitset.create (cap + 1) in
        match Bitset.inter_into ~into:a b with
        | () -> false
        | exception Invalid_argument _ -> true);
    (* --- Node_set bridge --- *)
    qtest "of_bitset ∘ to_bitset = id" gen_two_sets print_two_sets
      (fun (cap, a, _) ->
        let s = Sgraph.Node_set.of_list a in
        Sgraph.Node_set.equal s
          (Sgraph.Node_set.of_bitset (Sgraph.Node_set.to_bitset s ~capacity:cap)));
    qtest "load_bitset swaps mask contents exactly" gen_two_sets print_two_sets
      (fun (cap, a, b) ->
        let module NS = Sgraph.Node_set in
        let sa = NS.of_list a and sb = NS.of_list b in
        (* mask holds exactly [sa]; after the reload it must hold exactly
           [sb] — including members of [sa] that shared words with [sb] *)
        let mask = NS.to_bitset sa ~capacity:cap in
        NS.load_bitset mask ~prev:sa sb;
        Bitset.equal mask (NS.to_bitset sb ~capacity:cap)
        && NS.equal (NS.of_bitset mask) sb);
  ]

(* ---------- Deque ---------- *)

let deque_tests =
  [
    Alcotest.test_case "back is LIFO, front is FIFO" `Quick (fun () ->
        let d = Deque.create () in
        List.iter (Deque.push_back d) [ 1; 2; 3 ];
        check (Alcotest.option int) "newest from back" (Some 3) (Deque.pop_back_opt d);
        check (Alcotest.option int) "oldest from front" (Some 1) (Deque.pop_front_opt d);
        check (Alcotest.option int) "remaining" (Some 2) (Deque.pop_back_opt d);
        check (Alcotest.option int) "empty" None (Deque.pop_back_opt d));
    Alcotest.test_case "push_front" `Quick (fun () ->
        let d = Deque.create () in
        Deque.push_back d 2;
        Deque.push_front d 1;
        Deque.push_back d 3;
        check (Alcotest.list int) "order" [ 1; 2; 3 ] (Deque.to_list d));
    Alcotest.test_case "growth across wraparound" `Quick (fun () ->
        let d = Deque.create ~initial_capacity:4 () in
        List.iter (Deque.push_back d) [ 0; 1; 2 ];
        ignore (Deque.pop_front_opt d);
        ignore (Deque.pop_front_opt d);
        for i = 3 to 20 do
          Deque.push_back d i
        done;
        check (Alcotest.list int) "order preserved"
          (List.init 19 (fun i -> i + 2))
          (Deque.to_list d));
    Alcotest.test_case "clear empties and stays usable" `Quick (fun () ->
        let d = Deque.create () in
        List.iter (Deque.push_back d) [ 1; 2 ];
        Deque.clear d;
        check bool "empty" true (Deque.is_empty d);
        Deque.push_front d 9;
        check (Alcotest.option int) "usable" (Some 9) (Deque.pop_back_opt d));
    Alcotest.test_case "model check vs double-ended list" `Quick (fun () ->
        let rng = Rng.create 77 in
        let d = Deque.create ~initial_capacity:2 () in
        let model = ref [] in
        for _ = 1 to 3000 do
          match Rng.int rng 4 with
          | 0 ->
              let v = Rng.int rng 1000 in
              Deque.push_back d v;
              model := !model @ [ v ]
          | 1 ->
              let v = Rng.int rng 1000 in
              Deque.push_front d v;
              model := v :: !model
          | 2 -> (
              match !model with
              | [] -> check (Alcotest.option int) "front empty" None (Deque.pop_front_opt d)
              | x :: rest ->
                  check (Alcotest.option int) "front" (Some x) (Deque.pop_front_opt d);
                  model := rest)
          | _ -> (
              match List.rev !model with
              | [] -> check (Alcotest.option int) "back empty" None (Deque.pop_back_opt d)
              | x :: rest ->
                  check (Alcotest.option int) "back" (Some x) (Deque.pop_back_opt d);
                  model := List.rev rest)
        done;
        check (Alcotest.list int) "final contents" !model (Deque.to_list d));
  ]

(* ---------- Fifo_queue ---------- *)

let fifo_tests =
  [
    Alcotest.test_case "fifo order" `Quick (fun () ->
        let q = Fifo_queue.create () in
        List.iter (Fifo_queue.push q) [ 1; 2; 3 ];
        check int "1 first" 1 (Fifo_queue.pop q);
        check int "2 second" 2 (Fifo_queue.pop q);
        Fifo_queue.push q 4;
        check int "3 third" 3 (Fifo_queue.pop q);
        check int "4 fourth" 4 (Fifo_queue.pop q));
    Alcotest.test_case "pop on empty raises" `Quick (fun () ->
        let q : int Fifo_queue.t = Fifo_queue.create () in
        Alcotest.check_raises "empty" (Invalid_argument "Fifo_queue.pop: empty queue")
          (fun () -> ignore (Fifo_queue.pop q)));
    Alcotest.test_case "pop_opt" `Quick (fun () ->
        let q = Fifo_queue.create () in
        check (Alcotest.option int) "none" None (Fifo_queue.pop_opt q);
        Fifo_queue.push q 9;
        check (Alcotest.option int) "some" (Some 9) (Fifo_queue.pop_opt q));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let q = Fifo_queue.create () in
        Fifo_queue.push q 5;
        check int "peek" 5 (Fifo_queue.peek q);
        check int "still there" 1 (Fifo_queue.length q));
    Alcotest.test_case "growth across wraparound" `Quick (fun () ->
        let q = Fifo_queue.create ~initial_capacity:4 () in
        (* force head to move, then grow past the wrap point *)
        List.iter (Fifo_queue.push q) [ 0; 1; 2 ];
        ignore (Fifo_queue.pop q);
        ignore (Fifo_queue.pop q);
        for i = 3 to 20 do
          Fifo_queue.push q i
        done;
        check (Alcotest.list int) "order preserved" (List.init 19 (fun i -> i + 2))
          (Fifo_queue.to_list q));
    Alcotest.test_case "length tracks" `Quick (fun () ->
        let q = Fifo_queue.create () in
        check int "0" 0 (Fifo_queue.length q);
        Fifo_queue.push q 1;
        Fifo_queue.push q 2;
        check int "2" 2 (Fifo_queue.length q);
        ignore (Fifo_queue.pop q);
        check int "1" 1 (Fifo_queue.length q));
    Alcotest.test_case "clear empties" `Quick (fun () ->
        let q = Fifo_queue.create () in
        List.iter (Fifo_queue.push q) [ 1; 2 ];
        Fifo_queue.clear q;
        check bool "empty" true (Fifo_queue.is_empty q);
        Fifo_queue.push q 7;
        check int "usable after clear" 7 (Fifo_queue.pop q));
    Alcotest.test_case "iter front to back" `Quick (fun () ->
        let q = Fifo_queue.create () in
        List.iter (Fifo_queue.push q) [ 4; 5; 6 ];
        let acc = ref [] in
        Fifo_queue.iter (fun x -> acc := x :: !acc) q;
        check (Alcotest.list int) "order" [ 4; 5; 6 ] (List.rev !acc));
    Alcotest.test_case "model check vs stdlib Queue" `Quick (fun () ->
        let rng = Rng.create 31 in
        let q = Fifo_queue.create ~initial_capacity:2 () in
        let model = Queue.create () in
        for _ = 1 to 2000 do
          if Rng.bool rng || Queue.is_empty model then begin
            let v = Rng.int rng 1000 in
            Fifo_queue.push q v;
            Queue.push v model
          end
          else check int "pops agree" (Queue.pop model) (Fifo_queue.pop q)
        done;
        check int "lengths agree" (Queue.length model) (Fifo_queue.length q));
  ]

(* ---------- Binary_heap ---------- *)

let heap_tests =
  [
    Alcotest.test_case "min-heap pops sorted" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:compare () in
        List.iter (Binary_heap.push h) [ 5; 3; 8; 1; 9; 2 ];
        check (Alcotest.list int) "sorted" [ 1; 2; 3; 5; 8; 9 ] (Binary_heap.pop_all h));
    Alcotest.test_case "max-heap via reversed cmp" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:(fun a b -> compare b a) () in
        List.iter (Binary_heap.push h) [ 5; 3; 8 ];
        check int "max first" 8 (Binary_heap.pop h));
    Alcotest.test_case "pop empty raises" `Quick (fun () ->
        let h : int Binary_heap.t = Binary_heap.create ~cmp:compare () in
        Alcotest.check_raises "empty" (Invalid_argument "Binary_heap.pop: empty heap")
          (fun () -> ignore (Binary_heap.pop h)));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:compare () in
        Binary_heap.push h 4;
        Binary_heap.push h 2;
        check int "peek" 2 (Binary_heap.peek h);
        check int "length" 2 (Binary_heap.length h));
    Alcotest.test_case "duplicates survive" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:compare () in
        List.iter (Binary_heap.push h) [ 3; 3; 3 ];
        check (Alcotest.list int) "all three" [ 3; 3; 3 ] (Binary_heap.pop_all h));
    Alcotest.test_case "of_array heapifies" `Quick (fun () ->
        let h = Binary_heap.of_array ~cmp:compare [| 9; 4; 7; 1; 8 |] in
        check (Alcotest.list int) "sorted" [ 1; 4; 7; 8; 9 ] (Binary_heap.pop_all h));
    Alcotest.test_case "of_array empty" `Quick (fun () ->
        let h = Binary_heap.of_array ~cmp:compare ([||] : int array) in
        check bool "empty" true (Binary_heap.is_empty h));
    Alcotest.test_case "interleaved push/pop model check" `Quick (fun () ->
        let rng = Rng.create 17 in
        let h = Binary_heap.create ~cmp:compare () in
        let model = ref [] in
        for _ = 1 to 2000 do
          if Rng.bool rng || !model = [] then begin
            let v = Rng.int rng 100 in
            Binary_heap.push h v;
            model := List.sort compare (v :: !model)
          end
          else begin
            match !model with
            | least :: rest ->
                check int "min agrees" least (Binary_heap.pop h);
                model := rest
            | [] -> assert false
          end
        done);
    Alcotest.test_case "clear" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:compare () in
        List.iter (Binary_heap.push h) [ 1; 2 ];
        Binary_heap.clear h;
        check bool "empty" true (Binary_heap.is_empty h));
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let h = Binary_heap.create ~cmp:compare () in
        for i = 100 downto 1 do
          Binary_heap.push h i
        done;
        check (Alcotest.list int) "sorted 1..100" (List.init 100 (fun i -> i + 1))
          (Binary_heap.pop_all h));
  ]

(* ---------- Btree ---------- *)

let btree_tests =
  [
    Alcotest.test_case "empty tree" `Quick (fun () ->
        let t = Btree.create ~cmp:compare () in
        check bool "is_empty" true (Btree.is_empty t);
        check bool "mem" false (Btree.mem t 5);
        check (Alcotest.option int) "min" None (Btree.min_elt t));
    Alcotest.test_case "add then mem" `Quick (fun () ->
        let t = Btree.create ~cmp:compare () in
        check bool "fresh add" true (Btree.add t 42);
        check bool "mem" true (Btree.mem t 42);
        check bool "duplicate add" false (Btree.add t 42);
        check int "length 1" 1 (Btree.length t));
    Alcotest.test_case "sorted iteration" `Quick (fun () ->
        let t = Btree.create ~min_degree:2 ~cmp:compare () in
        List.iter (fun x -> ignore (Btree.add t x)) [ 9; 1; 5; 3; 7; 2; 8; 4; 6; 0 ];
        check (Alcotest.list int) "in order" (List.init 10 Fun.id) (Btree.to_list t));
    Alcotest.test_case "min/max" `Quick (fun () ->
        let t = Btree.create ~cmp:compare () in
        List.iter (fun x -> ignore (Btree.add t x)) [ 5; 1; 9 ];
        check (Alcotest.option int) "min" (Some 1) (Btree.min_elt t);
        check (Alcotest.option int) "max" (Some 9) (Btree.max_elt t));
    Alcotest.test_case "splits keep invariants (min_degree 2)" `Quick (fun () ->
        let t = Btree.create ~min_degree:2 ~cmp:compare () in
        for i = 0 to 500 do
          ignore (Btree.add t i);
          Btree.check_invariants t
        done;
        check int "all present" 501 (Btree.length t));
    Alcotest.test_case "random inserts vs Set model" `Quick (fun () ->
        let module IS = Set.Make (Int) in
        let rng = Rng.create 13 in
        let t = Btree.create ~min_degree:3 ~cmp:compare () in
        let model = ref IS.empty in
        for _ = 1 to 3000 do
          let v = Rng.int rng 500 in
          let fresh = Btree.add t v in
          check bool "freshness agrees" (not (IS.mem v !model)) fresh;
          model := IS.add v !model
        done;
        Btree.check_invariants t;
        check (Alcotest.list int) "same contents" (IS.elements !model) (Btree.to_list t);
        IS.iter (fun v -> check bool "mem" true (Btree.mem t v)) !model;
        check bool "absent stays absent" false (Btree.mem t 501));
    Alcotest.test_case "logarithmic height" `Quick (fun () ->
        let t = Btree.create ~min_degree:16 ~cmp:compare () in
        for i = 0 to 99_999 do
          ignore (Btree.add t i)
        done;
        (* with min degree 16, 1e5 keys fit comfortably within height 4 *)
        check bool "height small" true (Btree.height t <= 4);
        Btree.check_invariants t);
    Alcotest.test_case "custom comparator (descending)" `Quick (fun () ->
        let t = Btree.create ~cmp:(fun a b -> compare b a) () in
        List.iter (fun x -> ignore (Btree.add t x)) [ 1; 3; 2 ];
        check (Alcotest.list int) "descending" [ 3; 2; 1 ] (Btree.to_list t));
    Alcotest.test_case "node-set keys (PolyDelayEnum's index)" `Quick (fun () ->
        let module NS = Sgraph.Node_set in
        let t = Btree.create ~cmp:NS.compare () in
        check bool "add {1,2}" true (Btree.add t (NS.of_list [ 2; 1 ]));
        check bool "add {1,3}" true (Btree.add t (NS.of_list [ 1; 3 ]));
        check bool "duplicate {2,1}" false (Btree.add t (NS.of_list [ 1; 2 ]));
        check bool "mem {1,3}" true (Btree.mem t (NS.of_list [ 3; 1 ]));
        check int "two sets" 2 (Btree.length t));
    Alcotest.test_case "min_degree below 2 rejected" `Quick (fun () ->
        Alcotest.check_raises "min_degree 1"
          (Invalid_argument "Btree.create: min_degree must be >= 2") (fun () ->
            ignore (Btree.create ~min_degree:1 ~cmp:compare ())));
  ]

(* ---------- Lri_cache ---------- *)

let lri_tests =
  [
    Alcotest.test_case "find_or_add computes once" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:10 () in
        let calls = ref 0 in
        let compute k =
          incr calls;
          k * 2
        in
        check int "first" 8 (Lri_cache.find_or_add c 4 ~compute);
        check int "second (cached)" 8 (Lri_cache.find_or_add c 4 ~compute);
        check int "computed once" 1 !calls);
    Alcotest.test_case "evicts oldest-inserted first" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:2 () in
        Lri_cache.add c 1 "a";
        Lri_cache.add c 2 "b";
        (* touching key 1 must NOT protect it: LRI, not LRU *)
        ignore (Lri_cache.find_opt c 1);
        Lri_cache.add c 3 "c";
        check bool "1 evicted" false (Lri_cache.mem c 1);
        check bool "2 kept" true (Lri_cache.mem c 2);
        check bool "3 kept" true (Lri_cache.mem c 3));
    Alcotest.test_case "capacity bound holds" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:5 () in
        for i = 1 to 100 do
          Lri_cache.add c i i
        done;
        check int "at most 5" 5 (Lri_cache.length c);
        (* the five newest survive *)
        for i = 96 to 100 do
          check bool "recent kept" true (Lri_cache.mem c i)
        done);
    Alcotest.test_case "capacity 0 disables caching" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:0 () in
        let calls = ref 0 in
        let compute _ =
          incr calls;
          0
        in
        ignore (Lri_cache.find_or_add c 1 ~compute);
        ignore (Lri_cache.find_or_add c 1 ~compute);
        check int "computed every time" 2 !calls;
        check int "never stores" 0 (Lri_cache.length c));
    Alcotest.test_case "replacing a key keeps its eviction rank" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:2 () in
        Lri_cache.add c 1 "a";
        Lri_cache.add c 2 "b";
        Lri_cache.add c 1 "a2" (* replace, still oldest *);
        check (Alcotest.option Alcotest.string) "new value" (Some "a2")
          (Lri_cache.find_opt c 1);
        Lri_cache.add c 3 "c";
        check bool "1 still evicted first" false (Lri_cache.mem c 1));
    Alcotest.test_case "stats count hits misses evictions" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:1 () in
        ignore (Lri_cache.find_opt c 1) (* miss *);
        Lri_cache.add c 1 10;
        ignore (Lri_cache.find_opt c 1) (* hit *);
        Lri_cache.add c 2 20 (* evicts 1 *);
        let s = Lri_cache.stats c in
        check int "hits" 1 s.Lri_cache.hits;
        check int "misses" 1 s.Lri_cache.misses;
        check int "evictions" 1 s.Lri_cache.evictions);
    Alcotest.test_case "clear keeps stats" `Quick (fun () ->
        let c = Lri_cache.create ~capacity:4 () in
        Lri_cache.add c 1 1;
        ignore (Lri_cache.find_opt c 1);
        Lri_cache.clear c;
        check int "emptied" 0 (Lri_cache.length c);
        check int "hits kept" 1 (Lri_cache.stats c).Lri_cache.hits);
    Alcotest.test_case "negative capacity rejected" `Quick (fun () ->
        Alcotest.check_raises "capacity -1"
          (Invalid_argument "Lri_cache.create: negative capacity") (fun () ->
            ignore (Lri_cache.create ~capacity:(-1) ())));
  ]

let crc32_tests =
  let open Alcotest in
  [
    test_case "known answer: IEEE check vector" `Quick (fun () ->
        (* the standard CRC-32 test vector; pins the polynomial, the
           reflection, and the init/final xor all at once *)
        check int "123456789" 0xCBF43926 (Crc32.string "123456789"));
    test_case "empty input" `Quick (fun () ->
        check int "empty" 0 (Crc32.string ""));
    test_case "slicing boundary lengths agree with byte-at-a-time" `Quick (fun () ->
        (* reference implementation: the classic one-byte loop *)
        let table =
          let t = Array.make 256 0 in
          for n = 0 to 255 do
            let c = ref n in
            for _ = 0 to 7 do
              c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
            done;
            t.(n) <- !c
          done;
          t
        in
        let reference s =
          let crc = ref 0xFFFFFFFF in
          String.iter
            (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
            s;
          !crc lxor 0xFFFFFFFF
        in
        (* lengths straddling the 8-byte slicing step, including ones
           that leave every possible tail length *)
        for len = 0 to 40 do
          let s = String.init len (fun i -> Char.chr ((i * 37 + len) land 0xFF)) in
          check int (Printf.sprintf "len %d" len) (reference s) (Crc32.string s)
        done);
    test_case "off/len digest a substring" `Quick (fun () ->
        let s = "xxhello worldyy" in
        check int "substring"
          (Crc32.string "hello world")
          (Crc32.string ~off:2 ~len:11 s));
    test_case "out-of-bounds substring raises" `Quick (fun () ->
        check_raises "bad range" (Invalid_argument "Crc32: substring out of bounds")
          (fun () -> ignore (Crc32.string ~off:1 ~len:100 "short")));
    test_case "running int32 digest = digest of the bytes" `Quick (fun () ->
        (* ids, the -1 terminator and values whose int32 wraps: each run
           of k values against the Buffer bytes Int32.of_int writes *)
        let values = [| 0; 1; 255; 256; 65_537; 0x7FFF_FFFF; -1; 0x1_2345_6789; -77 |] in
        for k = 0 to Array.length values do
          let buf = Buffer.create 64 in
          let crc = ref Crc32.start in
          for i = 0 to k - 1 do
            Buffer.add_int32_le buf (Int32.of_int values.(i));
            crc := Crc32.add_int32_le !crc values.(i)
          done;
          check int (Printf.sprintf "%d values" k)
            (Crc32.string (Buffer.contents buf))
            (Crc32.finish !crc)
        done);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"add_int32s_le = fold of add_int32_le"
         ~print:QCheck2.Print.(
           quad int (array int) int int)
         QCheck2.Gen.(
           let id = oneof [ int_range (-100) 100_000; int; oneofl [ -1; 0x7FFF_FFFF; 0xFFFF_FFFF ] ] in
           int_range 0 0xFFFF_FFFF >>= fun crc ->
           array_size (int_range 0 24) id >>= fun a ->
           let len_a = Array.length a in
           int_range 0 len_a >>= fun off ->
           int_range 0 (len_a - off) >>= fun len -> return (crc, a, off, len))
         (fun (crc, a, off, len) ->
           let folded = ref crc in
           for i = off to off + len - 1 do
             folded := Crc32.add_int32_le !folded a.(i)
           done;
           Int.equal !folded (Crc32.add_int32s_le crc a ~off ~len)));
    test_case "add_int32s_le refuses slices outside the array" `Quick (fun () ->
        let a = Array.init 5 Fun.id in
        List.iter
          (fun (off, len) ->
            check_raises
              (Printf.sprintf "off %d len %d" off len)
              (Invalid_argument "Crc32.add_int32s_le: slice out of bounds")
              (fun () -> ignore (Crc32.add_int32s_le Crc32.start a ~off ~len)))
          [ (-1, 1); (0, 6); (3, 3); (5, 1); (0, -1); (6, 0); (max_int, 2) ];
        check int "empty slice at the end" Crc32.start
          (Crc32.add_int32s_le Crc32.start a ~off:5 ~len:0));
    test_case "add_int32s_le refuses a state outside 32 bits" `Quick (fun () ->
        let a = [| 0; -1; 0xFFFF_FFFF; 12345 |] in
        List.iter
          (fun crc ->
            for len = 0 to Array.length a do
              check_raises
                (Printf.sprintf "crc %d len %d" crc len)
                (Invalid_argument
                   "Crc32.add_int32s_le: running state outside [0, 2^32)")
                (fun () -> ignore (Crc32.add_int32s_le crc a ~off:0 ~len))
            done;
            (* the per-id step refuses the same states *)
            match Crc32.add_int32_le crc 0 with
            | _ -> failf "add_int32_le accepted crc %d" crc
            | exception Invalid_argument _ -> ())
          [ -1; 1 lsl 32; min_int; max_int; 0x1_0000_0000 lor 0xFF ];
        check int "largest state" (Crc32.add_int32_le 0xFFFF_FFFF 7)
          (Crc32.add_int32s_le 0xFFFF_FFFF [| 7 |] ~off:0 ~len:1));
  ]

let suites =
  [
    ("rng", rng_tests);
    ("crc32", crc32_tests);
    ("bitset", bitset_tests);
    ("bitset_kernels", kernel_tests);
    ("deque", deque_tests);
    ("fifo_queue", fifo_tests);
    ("binary_heap", heap_tests);
    ("btree", btree_tests);
    ("lri_cache", lri_tests);
  ]
