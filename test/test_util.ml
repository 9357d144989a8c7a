open Wlcq_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check_bool "fresh empty" true (Bitset.is_empty s);
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 99;
  check_bool "mem 0" true (Bitset.mem s 0);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 99" true (Bitset.mem s 99);
  check_bool "not mem 50" false (Bitset.mem s 50);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.clear s 63;
  check_bool "cleared" false (Bitset.mem s 63);
  check_int "cardinal after clear" 2 (Bitset.cardinal s)

let test_bitset_word_boundaries () =
  (* exercise indices around the 62-bit word boundary *)
  let s = Bitset.create 200 in
  List.iter (Bitset.set s) [ 61; 62; 63; 123; 124; 125; 199 ];
  Alcotest.(check (list int))
    "to_list sorted" [ 61; 62; 63; 123; 124; 125; 199 ] (Bitset.to_list s)

let test_bitset_algebra () =
  let a = Bitset.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5; 6; 7 ]
    (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 5 ]
    (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 7 ]
    (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check (list int)) "symdiff" [ 1; 4; 6; 7 ]
    (Bitset.to_list (Bitset.symdiff a b))

let test_bitset_complement_full () =
  let a = Bitset.of_list 65 [ 0; 64 ] in
  let c = Bitset.complement a in
  check_int "complement cardinal" 63 (Bitset.cardinal c);
  check_bool "0 not in complement" false (Bitset.mem c 0);
  check_bool "64 not in complement" false (Bitset.mem c 64);
  check_int "full cardinal" 65 (Bitset.cardinal (Bitset.full 65));
  check_bool "full = complement of empty" true
    (Bitset.equal (Bitset.full 65) (Bitset.complement (Bitset.create 65)))

let test_bitset_subset_disjoint () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  let c = Bitset.of_list 10 [ 4; 5 ] in
  check_bool "subset yes" true (Bitset.subset a b);
  check_bool "subset no" false (Bitset.subset b a);
  check_bool "disjoint yes" true (Bitset.disjoint a c);
  check_bool "disjoint no" false (Bitset.disjoint a b)

let bitset_qcheck =
  let gen_list = QCheck.(list_of_size (Gen.int_bound 30) (int_bound 99)) in
  [
    QCheck.Test.make ~name:"bitset of_list/to_list = sort_uniq" ~count:200
      gen_list (fun xs ->
          List.equal Int.equal
            (Bitset.to_list (Bitset.of_list 100 xs))
            (List.sort_uniq Int.compare xs));
    QCheck.Test.make ~name:"bitset union commutes" ~count:200
      QCheck.(pair gen_list gen_list)
      (fun (xs, ys) ->
         let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
         Bitset.equal (Bitset.union a b) (Bitset.union b a));
    QCheck.Test.make ~name:"bitset de Morgan" ~count:200
      QCheck.(pair gen_list gen_list)
      (fun (xs, ys) ->
         let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
         Bitset.equal
           (Bitset.complement (Bitset.union a b))
           (Bitset.inter (Bitset.complement a) (Bitset.complement b)));
    QCheck.Test.make ~name:"bitset cardinal of union + inter" ~count:200
      QCheck.(pair gen_list gen_list)
      (fun (xs, ys) ->
         let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
         Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b)
         = Bitset.cardinal a + Bitset.cardinal b);
    (* the word popcount against a member walk, on sparse sets and on
       their dense complements *)
    QCheck.Test.make ~name:"bitset cardinal counts members" ~count:200
      gen_list
      (fun xs ->
         let a = Bitset.of_list 100 xs in
         let c = Bitset.complement a in
         Bitset.cardinal a = List.length (Bitset.to_list a)
         && Bitset.cardinal c = List.length (Bitset.to_list c));
    (* member iteration against a [mem] scan, at the word boundaries
       (62 bits a word) and with words up to full *)
    QCheck.Test.make ~name:"bitset iteration matches a mem scan" ~count:300
      QCheck.(
        make
          ~print:(fun (n, xs) ->
              Printf.sprintf "capacity %d, {%s}" n
                (String.concat "," (List.map string_of_int xs)))
          Gen.(
            oneofl [ 0; 1; 61; 62; 63; 124; 125; 200 ] >>= fun n ->
            oneofl [ 0.0; 0.05; 0.5; 0.95; 1.0 ] >>= fun p ->
            let member i =
              map (fun x -> if x < p then Some i else None)
                (float_bound_exclusive 1.0)
            in
            map
              (fun keep -> (n, List.filter_map Fun.id keep))
              (flatten_l (List.init n member))))
      (fun (n, xs) ->
         let s = Bitset.of_list n xs in
         let scan = List.filter (Bitset.mem s) (List.init n Fun.id) in
         let same = List.equal Int.equal in
         let iterated = ref [] in
         Bitset.iter (fun i -> iterated := i :: !iterated) s;
         same (List.rev !iterated) scan
         && same (Bitset.fold (fun i acc -> i :: acc) s []) (List.rev scan)
         && same (Bitset.to_list s) scan
         &&
         match (Bitset.choose s, scan) with
         | c, m :: _ -> c = m
         | _, [] -> false
         | exception Not_found -> List.is_empty scan);
  ]

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)
(* ------------------------------------------------------------------ *)

let bi = Bigint.of_int

let test_bigint_roundtrip () =
  List.iter
    (fun n ->
       check_string "to_string of_int" (string_of_int n)
         (Bigint.to_string (bi n));
       check_bool "of_string round trip" true
         (Bigint.equal (bi n) (Bigint.of_string (string_of_int n))))
    [ 0; 1; -1; 42; -42; 999_999_999; 1_000_000_000; -1_000_000_001;
      max_int; min_int ]

let test_bigint_arith () =
  let a = Bigint.of_string "123456789012345678901234567890" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  check_string "add"
    "1111111110111111111011111111100"
    (Bigint.to_string (Bigint.add a b));
  check_string "sub"
    "-864197532086419753208641975320"
    (Bigint.to_string (Bigint.sub a b));
  check_string "mul"
    "121932631137021795226185032733622923332237463801111263526900"
    (Bigint.to_string (Bigint.mul a b))

let test_bigint_divmod () =
  let a = Bigint.of_string "121932631137021795226185032733622923332237463801111263526900" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  let q, r = Bigint.divmod a b in
  check_string "exact quotient" "123456789012345678901234567890"
    (Bigint.to_string q);
  check_bool "exact remainder" true (Bigint.is_zero r);
  let q, r = Bigint.divmod (bi 17) (bi 5) in
  check_string "small q" "3" (Bigint.to_string q);
  check_string "small r" "2" (Bigint.to_string r);
  (* truncated semantics, like Stdlib *)
  let q, r = Bigint.divmod (bi (-17)) (bi 5) in
  check_bool "neg q" true
    (Option.equal Int.equal (Bigint.to_int_opt q) (Some (-17 / 5)));
  check_bool "neg r" true
    (Option.equal Int.equal (Bigint.to_int_opt r) (Some (-17 mod 5)))

let test_bigint_pow_factorial () =
  check_string "2^100" "1267650600228229401496703205376"
    (Bigint.to_string (Bigint.pow Bigint.two 100));
  check_string "20!" "2432902008176640000"
    (Bigint.to_string (Bigint.factorial 20));
  check_string "C(50,25)" "126410606437752"
    (Bigint.to_string (Bigint.binomial 50 25))

let test_bigint_to_int_opt () =
  check_bool "max_int fits" true
    (Option.equal Int.equal (Bigint.to_int_opt (bi max_int)) (Some max_int));
  check_bool "overflow detected" true
    (Option.is_none (Bigint.to_int_opt (Bigint.mul (bi max_int) (bi 2))))

let bigint_qcheck =
  let medium = QCheck.int_range (-1_000_000_000) 1_000_000_000 in
  [
    QCheck.Test.make ~name:"bigint add matches int" ~count:500
      QCheck.(pair medium medium)
      (fun (a, b) -> Bigint.equal (Bigint.add (bi a) (bi b)) (bi (a + b)));
    QCheck.Test.make ~name:"bigint mul matches int" ~count:500
      QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, b) -> Bigint.equal (Bigint.mul (bi a) (bi b)) (bi (a * b)));
    QCheck.Test.make ~name:"bigint divmod matches int" ~count:500
      QCheck.(pair medium medium)
      (fun (a, b) ->
         QCheck.assume (b <> 0);
         let q, r = Bigint.divmod (bi a) (bi b) in
         Bigint.equal q (bi (a / b)) && Bigint.equal r (bi (a mod b)));
    QCheck.Test.make ~name:"bigint divmod reconstruction" ~count:200
      QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_bound 9))
                (list_of_size (Gen.int_range 1 6) (int_bound 9)))
      (fun (ds, es) ->
         let s l = String.concat "" (List.map string_of_int l) in
         let a = Bigint.of_string (s ds) in
         let b = Bigint.of_string (s es) in
         QCheck.assume (not (Bigint.is_zero b));
         let q, r = Bigint.divmod a b in
         Bigint.equal a (Bigint.add (Bigint.mul q b) r)
         && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0);
    QCheck.Test.make ~name:"bigint string round trip" ~count:200
      QCheck.(list_of_size (Gen.int_range 1 40) (int_bound 9))
      (fun ds ->
         let s =
           String.concat "" (List.map string_of_int ds)
         in
         let canonical =
           (* strip leading zeros *)
           let rec strip i =
             if i < String.length s - 1 && s.[i] = '0' then strip (i + 1)
             else String.sub s i (String.length s - i)
           in
           strip 0
         in
         Bigint.to_string (Bigint.of_string s) = canonical);
    QCheck.Test.make ~name:"bigint gcd divides both" ~count:300
      QCheck.(pair medium medium)
      (fun (a, b) ->
         QCheck.assume (a <> 0 || b <> 0);
         let g = Bigint.gcd (bi a) (bi b) in
         Bigint.is_zero (Bigint.rem (bi a) g)
         && Bigint.is_zero (Bigint.rem (bi b) g));
  ]

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rat_normalisation () =
  let q = Rat.of_ints 6 (-4) in
  check_string "normalised" "-3/2" (Rat.to_string q);
  check_string "integer rendering" "5" (Rat.to_string (Rat.of_ints 10 2));
  check_bool "zero" true (Rat.is_zero (Rat.of_ints 0 7))

let test_rat_arith () =
  let a = Rat.of_ints 1 3 and b = Rat.of_ints 1 6 in
  check_string "1/3+1/6" "1/2" (Rat.to_string (Rat.add a b));
  check_string "1/3-1/6" "1/6" (Rat.to_string (Rat.sub a b));
  check_string "1/3*1/6" "1/18" (Rat.to_string (Rat.mul a b));
  check_string "1/3 / 1/6" "2" (Rat.to_string (Rat.div a b))

let rat_qcheck =
  let g = QCheck.(pair (int_range (-1000) 1000) (int_range 1 1000)) in
  let rat_of (n, d) = Rat.of_ints n d in
  [
    QCheck.Test.make ~name:"rat add assoc" ~count:300 QCheck.(triple g g g)
      (fun (x, y, z) ->
         let a = rat_of x and b = rat_of y and c = rat_of z in
         Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    QCheck.Test.make ~name:"rat mul distributes" ~count:300
      QCheck.(triple g g g)
      (fun (x, y, z) ->
         let a = rat_of x and b = rat_of y and c = rat_of z in
         Rat.equal (Rat.mul a (Rat.add b c))
           (Rat.add (Rat.mul a b) (Rat.mul a c)));
    QCheck.Test.make ~name:"rat inverse" ~count:300 g (fun x ->
        let a = rat_of x in
        QCheck.assume (not (Rat.is_zero a));
        Rat.equal (Rat.mul a (Rat.inv a)) Rat.one);
  ]

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_linalg_solve () =
  (* [2 1; 1 3] x = [5; 10] -> x = [1; 3] *)
  let a =
    [| [| Rat.of_int 2; Rat.of_int 1 |]; [| Rat.of_int 1; Rat.of_int 3 |] |]
  in
  let b = [| Rat.of_int 5; Rat.of_int 10 |] in
  let x = Linalg.solve a b in
  check_string "x0" "1" (Rat.to_string x.(0));
  check_string "x1" "3" (Rat.to_string x.(1))

let test_linalg_singular () =
  let a =
    [| [| Rat.of_int 1; Rat.of_int 2 |]; [| Rat.of_int 2; Rat.of_int 4 |] |]
  in
  check_int "rank" 1 (Linalg.rank a);
  check_bool "det zero" true (Rat.is_zero (Linalg.determinant a));
  Alcotest.check_raises "solve fails" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Linalg.solve a [| Rat.one; Rat.one |]))

let test_linalg_determinant () =
  let a =
    [|
      [| Rat.of_int 1; Rat.of_int 2; Rat.of_int 3 |];
      [| Rat.of_int 4; Rat.of_int 5; Rat.of_int 6 |];
      [| Rat.of_int 7; Rat.of_int 8; Rat.of_int 10 |];
    |]
  in
  check_string "det" "-3" (Rat.to_string (Linalg.determinant a))

let test_vandermonde () =
  (* c1 * i + c2 * i^2 (i = node) reproduced from samples at nodes 2,5 *)
  let xs = [| bi 2; bi 5 |] in
  (* choose c = (3, -1): row ℓ gives 3*x^ℓ... system: sum_j c_j x_j^ℓ *)
  let c = [| Rat.of_int 3; Rat.of_int (-1) |] in
  let b =
    Array.init 2 (fun i ->
        let l = i + 1 in
        Bigint.add
          (Bigint.mul (bi 3) (Bigint.pow (bi 2) l))
          (Bigint.mul (bi (-1)) (Bigint.pow (bi 5) l)))
  in
  let x = Linalg.vandermonde_solve xs b in
  check_bool "coeff 0" true (Rat.equal x.(0) c.(0));
  check_bool "coeff 1" true (Rat.equal x.(1) c.(1))

let linalg_qcheck =
  [
    QCheck.Test.make ~name:"vandermonde recovers random coefficients"
      ~count:50
      QCheck.(list_of_size (Gen.int_range 1 6) (int_range (-50) 50))
      (fun cs ->
         let n = List.length cs in
         (* distinct non-zero nodes 1..n *)
         let xs = Array.init n (fun i -> bi (i + 1)) in
         let c = Array.of_list (List.map Rat.of_int cs) in
         let b =
           Array.init n (fun i ->
               let l = i + 1 in
               let s = ref Bigint.zero in
               Array.iteri
                 (fun j cj ->
                    let t =
                      Bigint.mul
                        (match Rat.to_bigint_opt cj with
                         | Some b -> b
                         | None -> Alcotest.fail "non-integer coefficient")
                        (Bigint.pow xs.(j) l)
                    in
                    s := Bigint.add !s t)
                 c;
               !s)
         in
         let x = Linalg.vandermonde_solve xs b in
         Array.for_all2 Rat.equal x c);
    QCheck.Test.make
      ~name:"vandermonde_sum is the sum of vandermonde_solve" ~count:50
      QCheck.(pair (list_of_size (Gen.int_range 1 8) (int_range (-30) 30))
                (list_of_size (Gen.return 8) (int_range (-1000) 1000)))
      (fun (raw, rhs) ->
         (* distinct non-zero nodes of either sign, arbitrary right-hand
            sides, so the sum need not be an integer *)
         let xs =
           Array.of_list
             (List.map bi
                (List.sort_uniq Int.compare
                   (List.map (fun x -> if x = 0 then 31 else x) raw)))
         in
         let rhs = Array.of_list rhs in
         let b = Array.init (Array.length xs) (fun i -> bi rhs.(i)) in
         Rat.equal
           (Array.fold_left Rat.add Rat.zero (Linalg.vandermonde_solve xs b))
           (Linalg.vandermonde_sum xs b));
  ]

(* ------------------------------------------------------------------ *)
(* Perm / Combinat / Prng                                              *)
(* ------------------------------------------------------------------ *)

let test_perm () =
  let p = [| 2; 0; 1 |] in
  check_bool "is perm" true (Perm.is_permutation p);
  check_bool "not perm" false (Perm.is_permutation [| 0; 0; 1 |]);
  check_bool "inverse" true
    (Perm.equal (Perm.compose p (Perm.inverse p)) (Perm.identity 3));
  check_int "number of perms of 4" 24 (List.length (Perm.all 4));
  let distinct = List.sort_uniq Wlcq_util.Ordering.int_array (Perm.all 4) in
  check_int "perms distinct" 24 (List.length distinct)

let test_combinat () =
  check_int "subsets of 5" 32 (List.length (Combinat.subsets [ 1; 2; 3; 4; 5 ]));
  check_int "C(6,3)" 20 (List.length (Combinat.subsets_of_size 3 [ 1; 2; 3; 4; 5; 6 ]));
  check_int "bell 4" 15 (List.length (Combinat.partitions [ 1; 2; 3; 4 ]));
  let count = ref 0 in
  Combinat.iter_tuples 3 4 (fun _ -> incr count);
  check_int "3^4 tuples" 81 !count;
  let count = ref 0 in
  Combinat.iter_subsets_of_size 2 5 (fun _ -> incr count);
  check_int "C(5,2) iter" 10 !count

let test_bigint_order_helpers () =
  check_bool "min" true (Bigint.equal (Bigint.min (bi 3) (bi 7)) (bi 3));
  check_bool "max" true (Bigint.equal (Bigint.max (bi (-3)) (bi 2)) (bi 2));
  check_bool "succ" true (Bigint.equal (Bigint.succ (bi (-1))) Bigint.zero);
  check_bool "pred" true (Bigint.equal (Bigint.pred Bigint.zero) Bigint.minus_one);
  check_int "sign pos" 1 (Bigint.sign (bi 5));
  check_int "sign neg" (-1) (Bigint.sign (bi (-5)));
  check_int "sign zero" 0 (Bigint.sign Bigint.zero);
  let open Bigint.Infix in
  check_bool "infix arithmetic" true
    (Bigint.equal ((bi 6 * bi 7) + bi 1 - bi 43 / bi 43) (bi 42));
  check_bool "infix comparisons" true
    (bi 1 < bi 2 && bi 2 <= bi 2 && bi 3 > bi 2 && bi 3 >= bi 3 && bi 4 = bi 4)

let test_rat_order_helpers () =
  check_bool "compare" true (Rat.compare (Rat.of_ints 1 3) (Rat.of_ints 1 2) < 0);
  check_bool "abs" true (Rat.equal (Rat.abs (Rat.of_ints (-3) 4)) (Rat.of_ints 3 4));
  check_int "sign" (-1) (Rat.sign (Rat.of_ints (-3) 4));
  check_bool "is_integer" true (Rat.is_integer (Rat.of_ints 8 4));
  check_bool "to_bigint_opt none" true
    (Option.is_none (Rat.to_bigint_opt (Rat.of_ints 1 2)));
  let open Rat.Infix in
  check_bool "infix" true
    (Rat.of_ints 1 2 + Rat.of_ints 1 3 = Rat.of_ints 5 6)

let test_combinat_cartesian () =
  Alcotest.(check (list (list int))) "cartesian"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Combinat.cartesian [ [ 1; 2 ]; [ 3; 4 ] ]);
  check_int "cartesian with empty factor" 0
    (List.length (Combinat.cartesian [ [ 1 ]; []; [ 2 ] ]));
  Alcotest.(check (list int)) "range" [ 0; 1; 2; 3 ] (Combinat.range 4)

let test_prng_split_copy () =
  let r = Prng.create 5 in
  let c = Prng.copy r in
  check_bool "copy continues identically" true
    (List.init 10 (fun _ -> Prng.int r 1000)
     = List.init 10 (fun _ -> Prng.int c 1000));
  let r = Prng.create 5 in
  let s = Prng.split r in
  check_bool "split diverges from parent" true
    (List.init 10 (fun _ -> Prng.int r 1000)
     <> List.init 10 (fun _ -> Prng.int s 1000))

let test_perm_apply_bounds () =
  check_int "apply" 2 (Perm.apply [| 2; 0; 1 |] 0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Perm.apply: out of range") (fun () ->
        ignore (Perm.apply [| 0; 1 |] 2))

let test_prng_determinism () =
  let r1 = Prng.create 42 and r2 = Prng.create 42 in
  let a = List.init 20 (fun _ -> Prng.int r1 1000) in
  let b = List.init 20 (fun _ -> Prng.int r2 1000) in
  Alcotest.(check (list int)) "same seed same stream" a b;
  let r3 = Prng.create 43 in
  let c = List.init 20 (fun _ -> Prng.int r3 1000) in
  check_bool "different seed different stream" true (a <> c)

let test_prng_bounds () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "wlcq_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "word boundaries" `Quick
            test_bitset_word_boundaries;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "complement/full" `Quick
            test_bitset_complement_full;
          Alcotest.test_case "subset/disjoint" `Quick
            test_bitset_subset_disjoint;
        ] );
      qsuite "bitset-properties" bitset_qcheck;
      ( "bigint",
        [
          Alcotest.test_case "round trip" `Quick test_bigint_roundtrip;
          Alcotest.test_case "arithmetic" `Quick test_bigint_arith;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "pow/factorial/binomial" `Quick
            test_bigint_pow_factorial;
          Alcotest.test_case "to_int_opt" `Quick test_bigint_to_int_opt;
        ] );
      qsuite "bigint-properties" bigint_qcheck;
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
        ] );
      qsuite "rat-properties" rat_qcheck;
      ( "linalg",
        [
          Alcotest.test_case "solve" `Quick test_linalg_solve;
          Alcotest.test_case "singular" `Quick test_linalg_singular;
          Alcotest.test_case "determinant" `Quick test_linalg_determinant;
          Alcotest.test_case "vandermonde" `Quick test_vandermonde;
        ] );
      qsuite "linalg-properties" linalg_qcheck;
      ( "perm-combinat-prng",
        [
          Alcotest.test_case "perm" `Quick test_perm;
          Alcotest.test_case "perm apply bounds" `Quick test_perm_apply_bounds;
          Alcotest.test_case "combinat" `Quick test_combinat;
          Alcotest.test_case "combinat cartesian" `Quick
            test_combinat_cartesian;
          Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
          Alcotest.test_case "prng split/copy" `Quick test_prng_split_copy;
        ] );
      ( "order-helpers",
        [
          Alcotest.test_case "bigint" `Quick test_bigint_order_helpers;
          Alcotest.test_case "rat" `Quick test_rat_order_helpers;
        ] );
    ]
