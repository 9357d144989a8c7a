open Wlcq_graph
open Wlcq_wl
module Prng = Wlcq_util.Prng
module Dispatch = Wlcq_dispatch.Dispatch

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Refinement (1-WL)                                                   *)
(* ------------------------------------------------------------------ *)

let test_refinement_classics () =
  (* the canonical 1-WL-equivalent non-isomorphic pair *)
  check_bool "2K3 ~1 C6" true
    (Refinement.equivalent (Builders.two_triangles ()) (Builders.cycle 6));
  (* regular graphs of the same degree and size are 1-WL-equivalent *)
  check_bool "C5 ~1 C5" true
    (Refinement.equivalent (Builders.cycle 5) (Builders.cycle 5));
  check_bool "P4 !~1 K1,3" false
    (Refinement.equivalent (Builders.path 4) (Builders.star 3));
  check_bool "different sizes" false
    (Refinement.equivalent (Builders.cycle 5) (Builders.cycle 6))

let test_refinement_stable_counts () =
  (* path P5: colours = distance-to-end patterns; stable partition has
     3 classes: ends, next-to-ends, middle *)
  let r = Refinement.run (Builders.path 5) in
  check_int "P5 stable colours" 3 r.Refinement.num_colours;
  (* vertex-transitive graphs stay monochromatic *)
  let r = Refinement.run (Builders.cycle 8) in
  check_int "C8 stays monochromatic" 1 r.Refinement.num_colours;
  let r = Refinement.run (Builders.petersen ()) in
  check_int "petersen monochromatic" 1 r.Refinement.num_colours

let test_refinement_isomorphic_graphs_equivalent () =
  let rng = Prng.create 11 in
  for _ = 1 to 10 do
    let g = Gen.gnp rng 8 0.4 in
    let p = Array.init 8 (fun i -> i) in
    Prng.shuffle rng p;
    check_bool "isomorphic implies 1-WL-equivalent" true
      (Refinement.equivalent g (Ops.relabel g p))
  done

(* ------------------------------------------------------------------ *)
(* k-WL                                                                *)
(* ------------------------------------------------------------------ *)

let test_kwl_distinguishes_2k3_c6 () =
  (* 2-WL sees triangle counts (tw(K3) = 2) *)
  check_bool "2K3 !~2 C6" false
    (Kwl.equivalent 2 (Builders.two_triangles ()) (Builders.cycle 6))

let test_kwl_on_isomorphic () =
  let rng = Prng.create 12 in
  for _ = 1 to 5 do
    let g = Gen.gnp rng 6 0.5 in
    let p = Array.init 6 (fun i -> i) in
    Prng.shuffle rng p;
    check_bool "isomorphic implies 2-WL-equivalent" true
      (Kwl.equivalent 2 g (Ops.relabel g p));
    check_bool "isomorphic implies 3-WL-equivalent" true
      (Kwl.equivalent 3 g (Ops.relabel g p))
  done

let test_kwl_rejects_k1 () =
  Alcotest.check_raises "k=1 rejected"
    (Invalid_argument "Kwl.run_many: requires k >= 2 (use Refinement for k = 1)")
    (fun () -> ignore (Kwl.run 1 (Builders.path 2)))

let test_kwl_overflow_guard () =
  (* 3000^5 > Sys.max_array_length: the guard must fire instead of the
     tuple count silently wrapping *)
  let g = Graph.empty 3000 in
  check_bool "overflow guard fires" true
    (try
       ignore (Kwl.run 5 g);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential check: optimised engine vs the reference engine        *)
(* ------------------------------------------------------------------ *)

(* The engines agree on partitions, not on concrete colour ids:
   canonicalise both colourings by first occurrence over the
   concatenation and compare. *)
let same_partition (css1 : int array list) (css2 : int array list) =
  let canon css =
    let ids = Hashtbl.create 64 in
    List.map
      (Array.map (fun c ->
           match Hashtbl.find_opt ids c with
           | Some i -> i
           | None ->
             let i = Hashtbl.length ids in
             Hashtbl.add ids c i;
             i))
      css
  in
  canon css1 = canon css2

let engines_agree k graphs =
  let rs = Kwl.run_many k graphs in
  let refs = Kwl.run_many_reference k graphs in
  same_partition
    (List.map (fun r -> r.Kwl.colours) rs)
    (List.map (fun r -> r.Kwl.colours) refs)
  && List.for_all2
       (fun r r' ->
          r.Kwl.num_colours = r'.Kwl.num_colours
          && r.Kwl.rounds = r'.Kwl.rounds)
       rs refs

let test_kwl_engine_vs_reference_cfi () =
  List.iter
    (fun (name, base, k) ->
       let even, odd = Wlcq_cfi.Pairs.twisted_pair base in
       let ge = even.Wlcq_cfi.Cfi.graph and go = odd.Wlcq_cfi.Cfi.graph in
       check_bool (name ^ " joint partition matches") true
         (engines_agree k [ ge; go ]);
       check_bool (name ^ " verdict matches") true
         (Kwl.equivalent k ge go = Kwl.equivalent_reference k ge go))
    [ ("chi(C4) k=2", Builders.cycle 4, 2);
      ("chi(C4) k=3", Builders.cycle 4, 3);
      ("chi(path3) k=2", Builders.path 3, 2) ]

let kwl_engine_qcheck =
  [
    QCheck.Test.make
      ~name:"optimised 2-WL engine matches the reference on random graphs"
      ~count:40
      QCheck.(triple (int_range 1 7) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         engines_agree 2 [ g1; g2 ]
         && Kwl.equivalent 2 g1 g2 = Kwl.equivalent_reference 2 g1 g2);
    QCheck.Test.make
      ~name:"optimised 3-WL engine matches the reference on tiny graphs"
      ~count:12
      QCheck.(triple (int_range 1 4) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         engines_agree 3 [ g1; g2 ]
         && Kwl.equivalent 3 g1 g2 = Kwl.equivalent_reference 3 g1 g2);
    QCheck.Test.make
      ~name:"single-graph runs agree between engines (k = 2)" ~count:30
      QCheck.(pair (int_range 1 8) (int_bound 100000))
      (fun (n, seed) ->
         let g = Gen.gnp (Prng.create seed) n 0.4 in
         engines_agree 2 [ g ]);
    QCheck.Test.make
      ~name:"forced-parallel run is byte-identical to forced-sequential"
      ~count:25
      QCheck.(triple (int_range 1 6) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         let run_pair min =
           Dispatch.set_calibration
             { Dispatch.default_calibration with Dispatch.wl_parallel_min = min };
           Fun.protect ~finally:Dispatch.reset_calibration (fun () ->
               Kwl.run_pair ~domains:4 2 g1 g2)
         in
         let q1, q2 = run_pair max_int in
         let p1, p2 = run_pair 0 in
         let arr_eq = Wlcq_util.Ordering.equal_array Int.equal in
         q1.Kwl.num_colours = p1.Kwl.num_colours
         && q1.Kwl.rounds = p1.Kwl.rounds
         && arr_eq q1.Kwl.colours p1.Kwl.colours
         && arr_eq q2.Kwl.colours p2.Kwl.colours);
  ]

let test_kwl_monotone () =
  (* pairs distinguished at k=1 stay distinguished at k=2 *)
  let g1 = Builders.path 4 and g2 = Builders.star 3 in
  check_bool "1-WL distinguishes" false (Equivalence.equivalent 1 g1 g2);
  check_bool "2-WL distinguishes too" false (Equivalence.equivalent 2 g1 g2)

(* ------------------------------------------------------------------ *)
(* Equivalence oracle vs hom-indistinguishability (Definition 19)      *)
(* ------------------------------------------------------------------ *)

let test_hom_oracle_crosscheck_classics () =
  (* 2K3 vs C6 agree on all patterns of treewidth <= 1, and are
     separated by a treewidth-2 pattern (the triangle) *)
  let g1 = Builders.two_triangles () and g2 = Builders.cycle 6 in
  check_bool "no tw-1 pattern distinguishes" true
    (Option.is_none
       (Equivalence.hom_indistinguishable ~tw_bound:1 ~max_pattern_size:5 g1
          g2));
  (match
     Equivalence.hom_indistinguishable ~tw_bound:2 ~max_pattern_size:4 g1 g2
   with
   | None -> Alcotest.fail "expected a distinguishing treewidth-2 pattern"
   | Some pattern ->
     check_bool "witness has treewidth 2" true
       (Wlcq_treewidth.Exact.treewidth pattern = 2))

let equivalence_qcheck =
  [
    QCheck.Test.make
      ~name:"1-WL agrees with tree-hom indistinguishability (small)"
      ~count:25
      QCheck.(pair (int_range 2 6) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g1 = Gen.gnp rng n 0.5 in
         let g2 = Gen.gnp rng n 0.5 in
         let wl = Equivalence.equivalent 1 g1 g2 in
         let hom =
           Option.is_none
             (Equivalence.hom_indistinguishable ~tw_bound:1
                ~max_pattern_size:4 g1 g2)
         in
         (* hom-oracle is truncated at pattern size 4, so it may fail to
            separate graphs that 1-WL separates with a larger tree; the
            implication tested is the sound direction *)
         (not wl) || hom);
    QCheck.Test.make
      ~name:"2-WL equivalence implies equal hom counts from tw<=2 patterns"
      ~count:15
      QCheck.(pair (int_range 2 5) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g1 = Gen.gnp rng n 0.5 in
         let g2 = Gen.gnp rng n 0.5 in
         let wl = Equivalence.equivalent 2 g1 g2 in
         (not wl)
         || Option.is_none
              (Equivalence.hom_indistinguishable ~tw_bound:2
                 ~max_pattern_size:4 g1 g2));
    QCheck.Test.make
      ~name:"hom-distinguished (tw<=1, size<=4) implies 1-WL-distinguished"
      ~count:25
      QCheck.(pair (int_range 2 6) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g1 = Gen.gnp rng n 0.4 in
         let g2 = Gen.gnp rng n 0.6 in
         let hom_dist =
           Option.is_some
             (Equivalence.hom_indistinguishable ~tw_bound:1
                ~max_pattern_size:4 g1 g2)
         in
         (not hom_dist) || not (Equivalence.equivalent 1 g1 g2));
  ]

let test_srg_pair_2wl_equivalent () =
  (* Shrikhande vs 4x4 rook: same SRG parameters, non-isomorphic,
     2-WL-equivalent — the canonical hard instance *)
  let r = Builders.rook () and s = Builders.shrikhande () in
  check_bool "not isomorphic" false (Iso.isomorphic r s);
  check_bool "1-WL-equivalent" true (Equivalence.equivalent 1 r s);
  check_bool "2-WL-equivalent" true (Equivalence.equivalent 2 r s)

let test_srg_pair_3wl_separated () =
  let r = Builders.rook () and s = Builders.shrikhande () in
  check_bool "3-WL separates" false (Equivalence.equivalent 3 r s)

(* ------------------------------------------------------------------ *)
(* Fractional isomorphism (characterisation I)                         *)
(* ------------------------------------------------------------------ *)

let test_fractional_classics () =
  check_bool "2K3 fractionally isomorphic to C6" true
    (Fractional.isomorphic (Builders.two_triangles ()) (Builders.cycle 6));
  check_bool "P4 not fractional K1,3" false
    (Fractional.isomorphic (Builders.path 4) (Builders.star 3));
  check_bool "regular same degree+size" true
    (Fractional.isomorphic (Builders.cycle 8)
       (Ops.disjoint_union (Builders.cycle 4) (Builders.cycle 4)))

let test_equitable_partition () =
  (* star: centre and leaves *)
  let classes, c = Fractional.coarsest_equitable (Builders.star 4) in
  check_int "star classes" 2 c;
  let m = Fractional.degree_matrix (Builders.star 4) classes c in
  (* one class sees 4 of the other and 0 of itself; the other sees 1 *)
  let rows =
    List.sort Wlcq_util.Ordering.int_list
      [ Array.to_list m.(0); Array.to_list m.(1) ]
  in
  let rows_eq = List.equal (List.equal Int.equal) in
  check_bool "degree matrix" true
    (rows_eq rows [ [ 0; 1 ]; [ 4; 0 ] ] || rows_eq rows [ [ 0; 4 ]; [ 1; 0 ] ]);
  (* vertex-transitive graphs have one class *)
  let _, c = Fractional.coarsest_equitable (Builders.petersen ()) in
  check_int "petersen equitable classes" 1 c

let test_degree_matrix_rejects_inequitable () =
  (* splitting P4 into {0,1} and {2,3} is not equitable: vertex 0 has
     no neighbour in class 1 but vertex 1 has one *)
  let g = Builders.path 4 in
  let classes = [| 0; 0; 1; 1 |] in
  check_bool "inequitable rejected" true
    (try
       ignore (Fractional.degree_matrix g classes 2);
       false
     with Invalid_argument _ -> true)

let fractional_qcheck =
  [
    QCheck.Test.make
      ~name:"fractional isomorphism coincides with 1-WL-equivalence"
      ~count:60
      QCheck.(triple (int_range 2 8) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         Fractional.isomorphic g1 g2 = Refinement.equivalent g1 g2);
    QCheck.Test.make ~name:"coarsest equitable partition is equitable"
      ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      (fun (n, seed) ->
         let g = Gen.gnp (Prng.create seed) n 0.4 in
         let classes, c = Fractional.coarsest_equitable g in
         match Fractional.degree_matrix g classes c with
         | _ -> true
         | exception Invalid_argument _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Pebble game                                                         *)
(* ------------------------------------------------------------------ *)

let test_pebble_classics () =
  check_bool "game separates 2K3/C6 at k=2" false
    (Pebble.equivalent 2 (Builders.two_triangles ()) (Builders.cycle 6));
  check_bool "game on identical graphs" true
    (Pebble.equivalent 2 (Builders.cycle 5) (Builders.cycle 5));
  check_bool "different sizes" false
    (Pebble.equivalent 2 (Builders.cycle 5) (Builders.cycle 6));
  (* the chi(C4) twisted pair is 1-WL-equivalent but not 2-WL *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (Builders.cycle 4) in
  check_bool "game separates chi(C4) at k=2" false
    (Pebble.equivalent 2 even.Wlcq_cfi.Cfi.graph odd.Wlcq_cfi.Cfi.graph)

let test_pebble_positions () =
  (* within one graph: Duplicator wins between tuples in the same
     orbit, loses between atomically incompatible ones *)
  let g = Builders.path 4 in
  check_bool "symmetric tuples" true
    (Pebble.duplicator_wins 2 g g [| 0; 1 |] [| 3; 2 |]);
  check_bool "edge vs non-edge" false
    (Pebble.duplicator_wins 2 g g [| 0; 1 |] [| 0; 2 |]);
  check_bool "endpoint vs midpoint" false
    (Pebble.duplicator_wins 2 g g [| 0; 0 |] [| 1; 1 |])

let pebble_qcheck =
  [
    QCheck.Test.make
      ~name:"pebble game agrees with folklore 2-WL on random pairs"
      ~count:25
      QCheck.(triple (int_range 2 5) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         Pebble.equivalent 2 g1 g2 = Kwl.equivalent 2 g1 g2);
    QCheck.Test.make
      ~name:"pebble game agrees with folklore 3-WL on tiny pairs"
      ~count:10
      QCheck.(triple (int_range 2 4) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = Gen.gnp (Prng.create s2) n 0.5 in
         Pebble.equivalent 3 g1 g2 = Kwl.equivalent 3 g1 g2);
    QCheck.Test.make
      ~name:"pebble positions agree with joint FWL(2) colours" ~count:10
      QCheck.(pair (int_range 2 4) (int_bound 100000))
      (fun (n, seed) ->
         let g = Gen.gnp (Prng.create seed) n 0.5 in
         let r = Kwl.run 2 g in
         let ok = ref true in
         for p = 0 to (n * n) - 1 do
           for q = 0 to (n * n) - 1 do
             let t1 = [| p / n; p mod n |] and t2 = [| q / n; q mod n |] in
             let game = Pebble.duplicator_wins 2 g g t1 t2 in
             let colours =
               r.Kwl.colours.(p) = r.Kwl.colours.(q)
             in
             if game <> colours then ok := false
           done
         done;
         !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Hom profiles                                                        *)
(* ------------------------------------------------------------------ *)

let test_hom_profile_patterns () =
  (* connected graphs up to iso: 1 on 1 vertex, 1 on 2, 2 on 3
     (path, triangle), 6 on 4 vertices *)
  check_int "patterns up to size 3, unbounded tw" 4
    (List.length (Hom_profile.patterns ~max_size:3 ~tw_bound:10));
  check_int "patterns up to size 4" 10
    (List.length (Hom_profile.patterns ~max_size:4 ~tw_bound:10));
  (* trees only for tw_bound 1: 1 + 1 + 1 + 2 = 5 up to size 4 *)
  check_int "trees up to size 4" 5
    (List.length (Hom_profile.patterns ~max_size:4 ~tw_bound:1))

let test_hom_profile_difference () =
  let g1 = Builders.two_triangles () and g2 = Builders.cycle 6 in
  (* no tree up to size 6 separates them *)
  check_bool "tw-1 profile identical" true
    (Option.is_none
       (Hom_profile.first_difference ~max_size:5 ~tw_bound:1 g1 g2));
  (* the triangle is the smallest treewidth-2 separator *)
  (match Hom_profile.first_difference ~max_size:4 ~tw_bound:2 g1 g2 with
   | None -> Alcotest.fail "expected a difference"
   | Some (pattern, c1, c2) ->
     check_bool "separator is the triangle" true
       (Iso.isomorphic pattern (Builders.cycle 3));
     check_bool "counts 12 vs 0" true
       Wlcq_util.Bigint.(equal c1 (of_int 12) && equal c2 (of_int 0)));
  (* profiles of isomorphic graphs agree *)
  let pats = Hom_profile.patterns ~max_size:4 ~tw_bound:2 in
  check_bool "profiles of isomorphic graphs" true
    (Hom_profile.profile ~patterns:pats (Builders.petersen ())
     = Hom_profile.profile ~patterns:pats (Builders.petersen ()))

let test_wl_dimension_of_pair () =
  let g1 = Builders.two_triangles () and g2 = Builders.cycle 6 in
  check_bool "dimension of (2K3, C6) pair is 2" true
    (Option.equal Int.equal
       (Equivalence.wl_dimension_of_pair g1 g2 ~max_k:3)
       (Some 2));
  let g = Builders.petersen () in
  check_bool "isomorphic pair never distinguished" true
    (Option.is_none (Equivalence.wl_dimension_of_pair g g ~max_k:3))

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "wlcq_wl"
    [
      ( "refinement",
        [
          Alcotest.test_case "classic pairs" `Quick test_refinement_classics;
          Alcotest.test_case "stable counts" `Quick
            test_refinement_stable_counts;
          Alcotest.test_case "isomorphic equivalent" `Quick
            test_refinement_isomorphic_graphs_equivalent;
        ] );
      ( "kwl",
        [
          Alcotest.test_case "2-WL separates 2K3/C6" `Quick
            test_kwl_distinguishes_2k3_c6;
          Alcotest.test_case "isomorphic invariance" `Quick
            test_kwl_on_isomorphic;
          Alcotest.test_case "k=1 rejected" `Quick test_kwl_rejects_k1;
          Alcotest.test_case "overflow guard" `Quick test_kwl_overflow_guard;
          Alcotest.test_case "engine vs reference on CFI pairs" `Quick
            test_kwl_engine_vs_reference_cfi;
          Alcotest.test_case "monotonicity" `Quick test_kwl_monotone;
          Alcotest.test_case "SRG pair 2-WL-equivalent" `Quick
            test_srg_pair_2wl_equivalent;
          Alcotest.test_case "SRG pair 3-WL-separated" `Slow
            test_srg_pair_3wl_separated;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hom oracle classics" `Quick
            test_hom_oracle_crosscheck_classics;
          Alcotest.test_case "dimension of pair" `Quick
            test_wl_dimension_of_pair;
        ] );
      qsuite "equivalence-properties" equivalence_qcheck;
      qsuite "kwl-engine-properties" kwl_engine_qcheck;
      ( "pebble",
        [
          Alcotest.test_case "classics" `Quick test_pebble_classics;
          Alcotest.test_case "positions" `Quick test_pebble_positions;
        ] );
      qsuite "pebble-properties" pebble_qcheck;
      ( "hom-profile",
        [
          Alcotest.test_case "pattern enumeration" `Quick
            test_hom_profile_patterns;
          Alcotest.test_case "first difference" `Quick
            test_hom_profile_difference;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "classics" `Quick test_fractional_classics;
          Alcotest.test_case "equitable partition" `Quick
            test_equitable_partition;
          Alcotest.test_case "inequitable rejected" `Quick
            test_degree_matrix_rejects_inequitable;
        ] );
      qsuite "fractional-properties" fractional_qcheck;
    ]
