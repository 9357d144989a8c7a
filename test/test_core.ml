open Wlcq_core
open Wlcq_graph
module Bigint = Wlcq_util.Bigint
module Rat = Wlcq_util.Rat
module Prng = Wlcq_util.Prng
module Td_ref = Wlcq_oracle.Td_ref
module Fast_ref = Wlcq_oracle.Fast_ref
module Enum_ref = Wlcq_oracle.Enum_ref
module Core_ref = Wlcq_oracle.Core_ref
module Budget = Wlcq_robust.Budget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse s = (Parser.parse_exn s).Parser.query

(* frequently used queries *)
let star2 = Star.query 2
let star3 = Star.query 3
let edge_query = parse "(x1, x2) := E(x1, x2)"
let path2_query = parse "(x1, x2) := exists y . E(x1, y) & E(y, x2)"

(* ------------------------------------------------------------------ *)
(* Cq basics                                                           *)
(* ------------------------------------------------------------------ *)

let test_cq_make_validation () =
  Alcotest.check_raises "duplicate free var"
    (Invalid_argument "Cq.make: duplicate free variable") (fun () ->
        ignore (Cq.make (Builders.path 3) [ 0; 0 ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cq.make: free variable out of range") (fun () ->
        ignore (Cq.make (Builders.path 3) [ 5 ]))

let test_cq_classification () =
  check_bool "full" true (Cq.is_full (Cq.make (Builders.path 3) [ 0; 1; 2 ]));
  check_bool "boolean" true (Cq.is_boolean (Cq.make (Builders.path 3) []));
  check_bool "star connected" true (Cq.is_connected star3);
  check_int "star3 free count" 3 (Cq.num_free star3);
  Alcotest.(check (array int)) "quantified vars" [| 3 |]
    (Cq.quantified_vars star3)

let test_full_query_answers_are_homs () =
  (* for full queries |Ans| = |Hom| *)
  let h = Builders.path 3 in
  let q = Cq.make h [ 0; 1; 2 ] in
  let g = Builders.cycle 5 in
  check_int "full query = hom count" (Wlcq_hom.Brute.count h g)
    (Cq.count_answers q g)

let test_boolean_query_decision () =
  let q = Cq.make (Builders.cycle 3) [] in
  check_int "triangle exists in K4" 1 (Cq.count_answers q (Builders.clique 4));
  check_int "no triangle in C6" 0 (Cq.count_answers q (Builders.cycle 6))

let test_star_answers_semantics () =
  (* answers of the k-star = tuples with a common neighbour *)
  List.iter
    (fun g ->
       List.iter
         (fun k ->
            check_int "star answers"
              (Star.count_common_neighbour_tuples g k)
              (Cq.count_answers (Star.query k) g))
         [ 1; 2; 3 ])
    [ Builders.cycle 5; Builders.clique 4; Builders.star 4;
      Builders.two_triangles () ]

let test_count_answers_known () =
  (* S2 on C5: 5 equal pairs + 10 ordered distance-2 pairs *)
  check_int "S2 on C5" 15 (Cq.count_answers star2 (Builders.cycle 5));
  (* edge query on Petersen: 2m = 30 *)
  check_int "edge query" 30 (Cq.count_answers edge_query (Builders.petersen ()));
  (* path2 on K3: all 9 pairs have a common neighbour *)
  check_int "path2 on K3" 9 (Cq.count_answers path2_query (Builders.clique 3))

let test_injective_answers () =
  (* injective S2 answers on C5 exclude the 5 diagonal pairs *)
  check_int "injective star answers" 10
    (Enum_ref.count_injective_answers star2 (Builders.cycle 5));
  check_bool "injective <= all" true
    (Enum_ref.count_injective_answers star3 (Builders.clique 4)
     <= Cq.count_answers star3 (Builders.clique 4));
  (* the Möbius sum on Fast_count takes the queries the expansion's
     preconditions exclude: disconnected, an isolated free variable,
     boolean *)
  List.iter
    (fun (name, q, g, expected) ->
       check_int (name ^ ": enumeration") expected
         (Enum_ref.count_injective_answers q g);
       check_string (name ^ ": Möbius sum") (string_of_int expected)
         (Bigint.to_string (Quantum.count_injective_answers q g)))
    [ ("star2 on C5", star2, Builders.cycle 5, 10);
      ("disconnected",
       parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(x2, y2)",
       Builders.cycle 5, 20);
      ("isolated free variable", parse "(x1, x2, x3) := E(x1, x2)",
       Builders.petersen (), 240);
      ("boolean", parse "() := exists y z . E(y, z)", Builders.cycle 5, 1);
      ("boolean, no answer", parse "() := exists y z . E(y, z)",
       Graph.empty 3, 0) ]

let test_query_isomorphism () =
  (* same star with permuted labels *)
  let q1 = Star.query 3 in
  let q2 = Cq.make (Graph.create 4 [ (1, 0); (2, 0); (3, 0) ]) [ 1; 2; 3 ] in
  check_bool "relabelled star isomorphic" true (Cq.isomorphic q1 q2);
  (* same graph, different free set: not isomorphic as queries *)
  let q3 = Cq.make (Builders.star 3) [ 0; 1; 2 ] in
  let q4 = Cq.make (Builders.star 3) [ 1; 2; 3 ] in
  check_bool "different free sets" false (Cq.isomorphic q3 q4);
  check_bool "edge vs path2" false (Cq.isomorphic edge_query path2_query)

let test_partial_automorphisms () =
  (* Aut(S_k, X_k) = all k! permutations of the leaves *)
  check_int "Aut(S3,X3)" 6 (List.length (Cq.partial_automorphisms star3));
  (* path with both ends free: identity and the flip *)
  let q = parse "(x1, x2) := exists y . E(x1, y) & E(y, x2)" in
  check_int "Aut(path2)" 2 (List.length (Cq.partial_automorphisms q));
  (* asymmetric: free end vs quantified end of an edge+pendant *)
  let q = parse "(x1) := exists y1 y2 . E(x1, y1) & E(y1, y2)" in
  check_int "Aut(pendant)" 1 (List.length (Cq.partial_automorphisms q))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_roundtrip () =
  let p = Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)" in
  check_string "roundtrip" "(x1, x2) := exists y . E(x1, y) & E(x2, y)"
    (Parser.to_formula ~names:p.Parser.names p.Parser.query);
  check_bool "parsed star2 isomorphic to built star2" true
    (Cq.isomorphic p.Parser.query star2)

let test_parser_errors () =
  let expect_error s =
    match Parser.parse s with
    | Ok _ -> Alcotest.fail ("expected parse error for: " ^ s)
    | Error _ -> ()
  in
  expect_error "(x) := E(x, x)";
  expect_error "(x) := E(x, z)";
  expect_error "(x, x) := E(x, y)";
  expect_error "x := E(x, y)";
  expect_error "(x) := exists . E(x, y)";
  expect_error "(x) :=";
  expect_error "(x) := E(x y)"

let test_parser_whitespace_insensitive () =
  let a = parse "(x1,x2):=exists y.E(x1,y)&E(x2,y)" in
  let b = parse "( x1 , x2 ) :=  exists  y .  E( x1 , y ) & E( x2 , y )" in
  check_bool "whitespace irrelevant" true (Cq.isomorphic a b)

(* ------------------------------------------------------------------ *)
(* Minimize (counting cores)                                           *)
(* ------------------------------------------------------------------ *)

let test_minimal_examples () =
  check_bool "stars minimal" true (Minimize.is_counting_minimal star3);
  check_bool "edge minimal" true (Minimize.is_counting_minimal edge_query);
  check_bool "full queries always minimal" true
    (Minimize.is_counting_minimal (Cq.make (Builders.path 4) [ 0; 1; 2; 3 ]))

let test_nonminimal_pendant () =
  (* (x) := exists y1 y2 . E(x,y1) & E(y1,y2): the tail folds back *)
  let q = parse "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)" in
  check_bool "pendant tail not minimal" false (Minimize.is_counting_minimal q);
  let core = Minimize.counting_core q in
  check_int "core is a single edge" 2 (Graph.num_vertices core.Cq.graph);
  check_bool "core isomorphic to (x) := exists y . E(x,y)" true
    (Cq.isomorphic core (parse "(x) := exists y . E(x, y)"))

let test_core_preserves_answers () =
  let queries =
    [
      parse "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)";
      parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(x2, y1) & E(x1, y2)";
      parse "(x) := exists y1 y2 y3 . E(x, y1) & E(y1, y2) & E(y2, y3)";
    ]
  in
  let rng = Prng.create 99 in
  List.iter
    (fun q ->
       let core = Minimize.counting_core q in
       for _ = 1 to 5 do
         let g = Gen.gnp rng 6 0.4 in
         check_int "core counting-equivalent" (Cq.count_answers q g)
           (Cq.count_answers core g)
       done)
    queries

let test_shrinking_endomorphism_properties () =
  let q = parse "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)" in
  match Minimize.shrinking_endomorphism q with
  | None -> Alcotest.fail "expected a shrinking endomorphism"
  | Some endo ->
    check_bool "is an endomorphism" true
      (Wlcq_hom.Brute.is_homomorphism q.Cq.graph q.Cq.graph endo);
    check_int "fixes the free variable" 0 endo.(0);
    let image = List.sort_uniq Int.compare (Array.to_list endo) in
    check_bool "proper image" true
      (List.length image < Graph.num_vertices q.Cq.graph)

(* A tripped budget stops the core search before its first pinned
   search; [retraction] polls it itself, also around a search that
   never polls *)
let test_core_tripped_budget () =
  let budget = Budget.create () in
  Budget.trip budget Budget.Deadline;
  let q = parse "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)" in
  check_bool "counting_core raises" true
    (match Minimize.counting_core ~budget q with
     | _ -> false
     | exception Budget.Exhausted Budget.Deadline -> true);
  check_bool "retraction polls per quantified vertex" true
    (match
       Minimize.retraction ~budget ~free:q.Cq.free
         (fun ~pins:_ ~candidates:_ _ -> ())
     with
     | _ -> false
     | exception Budget.Exhausted Budget.Deadline -> true)

(* Random queries for the differential against the enumeration: G(n, p)
   with n = 1..7, so disconnected graphs and isolated (free) variables
   are common, and a free set that is empty, full or random. *)
let arb_query =
  QCheck.(quad (int_range 1 7) (int_range 1 9) (int_range 0 3) (int_bound 1_000_000))

let random_query (n, p10, mode, seed) =
  let rng = Prng.create seed in
  let h = Gen.gnp rng n (float_of_int p10 /. 10.) in
  let vertices = List.init n Fun.id in
  let free =
    match mode with
    | 0 -> []
    | 1 -> vertices
    | _ -> List.filter (fun _ -> Prng.bool rng) vertices
  in
  Cq.make h free

let core_differential_qcheck =
  [
    QCheck.Test.make ~name:"counting minimality matches the enumeration"
      ~count:400 arb_query
      (fun params ->
         let q = random_query params in
         Bool.equal (Minimize.is_counting_minimal q)
           (Core_ref.is_counting_minimal q));
    QCheck.Test.make ~name:"counting core is isomorphic to the enumeration's"
      ~count:400 arb_query
      (fun params ->
         let q = random_query params in
         Cq.isomorphic (Minimize.counting_core q) (Core_ref.counting_core q));
    QCheck.Test.make
      ~name:"shrinking endomorphism fixes X and has a proper image" ~count:400
      arb_query
      (fun params ->
         let q = random_query params in
         let h = q.Cq.graph in
         match Minimize.shrinking_endomorphism q with
         | None -> Core_ref.is_counting_minimal q
         | Some endo ->
           (not (Core_ref.is_counting_minimal q))
           && Wlcq_hom.Brute.is_homomorphism h h endo
           && Wlcq_util.Bitset.for_all (fun x -> endo.(x) = x) q.Cq.free
           && List.length (List.sort_uniq Int.compare (Array.to_list endo))
              < Graph.num_vertices h);
  ]

let minimize_qcheck =
  [
    QCheck.Test.make ~name:"core has answers equal to original" ~count:30
      QCheck.(pair (int_range 2 5) (int_bound 100000))
      (fun (nh, seed) ->
         let rng = Prng.create seed in
         let h = Gen.random_connected rng nh 0.3 in
         let q = Cq.make h [ 0 ] in
         let core = Minimize.counting_core q in
         let g = Gen.gnp rng 5 0.5 in
         Cq.count_answers q g = Cq.count_answers core g);
    QCheck.Test.make ~name:"core is minimal and no smaller than needed"
      ~count:30
      QCheck.(pair (int_range 2 5) (int_bound 100000))
      (fun (nh, seed) ->
         let rng = Prng.create seed in
         let h = Gen.random_connected rng nh 0.3 in
         let q = Cq.make h [ 0 ] in
         let core = Minimize.counting_core q in
         Minimize.is_counting_minimal core
         && Graph.num_vertices core.Cq.graph <= nh);
  ]

(* ------------------------------------------------------------------ *)
(* Extension width machinery                                           *)
(* ------------------------------------------------------------------ *)

let test_gamma_star_clique () =
  for k = 1 to 5 do
    check_bool (Printf.sprintf "Gamma(S%d) = K%d" k (k + 1)) true
      (Star.gamma_is_clique k)
  done

let test_gamma_no_quantified () =
  (* full queries: Γ(H, V(H)) = H *)
  let h = Builders.cycle 5 in
  let q = Cq.make h [ 0; 1; 2; 3; 4 ] in
  check_bool "gamma of full query" true (Graph.equal (Extension.gamma_graph q) h)

let test_gamma_two_components () =
  (* two separate quantified components touching different free pairs *)
  let q =
    parse
      "(x1, x2, x3) := exists y1 y2 . E(x1, y1) & E(x2, y1) & E(x2, y2) & \
       E(x3, y2)"
  in
  let gamma = Extension.gamma_graph q in
  check_bool "x1-x2 added" true (Graph.adjacent gamma 0 1);
  check_bool "x2-x3 added" true (Graph.adjacent gamma 1 2);
  check_bool "x1-x3 not added" false (Graph.adjacent gamma 0 2)

let test_widths_known () =
  check_int "ew(S3)" 3 (Extension.extension_width star3);
  check_int "sew(S3)" 3 (Extension.semantic_extension_width star3);
  check_int "ew(edge)" 1 (Extension.extension_width edge_query);
  check_int "ew(path2)" 2 (Extension.extension_width path2_query);
  check_int "qss(S3)" 3 (Extension.quantified_star_size star3);
  check_int "qss(full)" 0
    (Extension.quantified_star_size (Cq.make (Builders.path 3) [ 0; 1; 2 ]))

let test_f_ell_structure () =
  (* F_ℓ(S_k) = K_{k,ℓ} *)
  let fe = Extension.f_ell star3 4 in
  check_bool "F_4(S3) = K_{3,4}" true
    (Iso.isomorphic fe.Extension.graph (Builders.complete_bipartite 3 4));
  check_bool "gamma homomorphism" true
    (Extension.gamma_is_homomorphism fe star3);
  (* F_1 = H *)
  let fe1 = Extension.f_ell star3 1 in
  check_bool "F_1 isomorphic to H" true
    (Iso.isomorphic fe1.Extension.graph star3.Cq.graph)

let test_corollary18 () =
  (* ew = max_ℓ tw(F_ℓ), and tw(F_ℓ) <= ew for every ℓ (Lemma 16) *)
  List.iter
    (fun q ->
       let ew = Extension.extension_width q in
       for ell = 1 to 5 do
         check_bool "Lemma 16: tw(F_ell) <= ew" true
           (Wlcq_treewidth.Exact.treewidth (Extension.f_ell q ell).Extension.graph
            <= ew)
       done;
       check_int "Corollary 18: max tw(F_ell) = ew" ew
         (Extension.ew_via_f_ell q ~max_ell:6))
    [ star2; star3; path2_query; edge_query;
      parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)" ]

let test_saturating_ell () =
  (* for S_k, tw(K_{k,ℓ}) = min(k,ℓ) so the first saturating ℓ is k *)
  check_int "saturating ell of S2" 2 (Extension.minimal_saturating_ell star2);
  check_int "saturating ell of S3" 3 (Extension.minimal_saturating_ell star3);
  check_int "saturating ell of edge query" 1
    (Extension.minimal_saturating_ell edge_query)

let test_contract () =
  (* contract of S_k is K_k *)
  check_bool "contract(S3) = K3" true
    (Iso.isomorphic (Extension.contract star3) (Builders.clique 3))

let test_gen_query () =
  let rng = Prng.create 17 in
  for _ = 1 to 10 do
    let q = Gen_query.random_connected rng ~num_vars:6 ~num_free:2
        ~edge_prob:0.3 in
    check_bool "generated query connected" true (Cq.is_connected q);
    check_int "generated arity" 2 (Cq.num_free q)
  done;
  let q = Gen_query.random_star_like rng ~num_free:3 ~centres:2 in
  check_bool "star-like connected" true (Cq.is_connected q);
  check_int "star-like free" 3 (Cq.num_free q);
  (* quantified paths: sew = 2 at every length *)
  List.iter
    (fun len ->
       let q = Gen_query.quantified_path len in
       check_bool "quantified path connected" true (Cq.is_connected q);
       check_int "quantified path sew" 2
         (Extension.semantic_extension_width q))
    [ 1; 2; 3; 4 ];
  check_bool "quantified path 2 isomorphic to parsed version" true
    (Cq.isomorphic (Gen_query.quantified_path 2)
       (parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)"))

let extension_qcheck =
  let random_query rng nh nfree =
    let h = Gen.random_connected rng nh 0.3 in
    let vs = Array.init nh (fun i -> i) in
    Prng.shuffle rng vs;
    Cq.make h (Array.to_list (Array.sub vs 0 nfree))
  in
  [
    QCheck.Test.make ~name:"sew <= ew" ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 3) (int_bound 100000))
      (fun (nh, nfree, seed) ->
         let rng = Prng.create seed in
         let q = random_query rng nh (min nfree nh) in
         Extension.semantic_extension_width q <= Extension.extension_width q);
    QCheck.Test.make ~name:"ew >= tw(H)" ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 3) (int_bound 100000))
      (fun (nh, nfree, seed) ->
         let rng = Prng.create seed in
         let q = random_query rng nh (min nfree nh) in
         Extension.extension_width q
         >= Wlcq_treewidth.Exact.treewidth q.Cq.graph);
    QCheck.Test.make ~name:"ew >= quantified star size - 1" ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 3) (int_bound 100000))
      (fun (nh, nfree, seed) ->
         let rng = Prng.create seed in
         let q = random_query rng nh (min nfree nh) in
         Extension.extension_width q >= Extension.quantified_star_size q - 1);
    QCheck.Test.make
      ~name:"ew <= tw(H) + tw(contract) + 1 (Corollary 4 proof)" ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 3) (int_bound 100000))
      (fun (nh, nfree, seed) ->
         let rng = Prng.create seed in
         let q = random_query rng nh (min nfree nh) in
         Extension.extension_width q
         <= Wlcq_treewidth.Exact.treewidth q.Cq.graph
            + Wlcq_treewidth.Exact.treewidth (Extension.contract q)
            + 1);
    QCheck.Test.make ~name:"sew invariant under relabelling" ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 3) (int_bound 100000))
      (fun (nh, nfree, seed) ->
         let rng = Prng.create seed in
         let q = random_query rng nh (min nfree nh) in
         let p = Array.init nh (fun i -> i) in
         Prng.shuffle rng p;
         Extension.semantic_extension_width (Cq.relabel q p)
         = Extension.semantic_extension_width q);
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 1: dimension = sew                                          *)
(* ------------------------------------------------------------------ *)

let test_dimension_examples () =
  check_int "dim(S1)" 1 (Wl_dimension.dimension (Star.query 1));
  check_int "dim(S2)" 2 (Wl_dimension.dimension star2);
  check_int "dim(S3)" 3 (Wl_dimension.dimension star3);
  check_int "dim(edge)" 1 (Wl_dimension.dimension edge_query);
  check_int "dim(path2)" 2 (Wl_dimension.dimension path2_query);
  (* full queries: dimension = treewidth (Neuen) *)
  check_int "dim(full C5)" 2
    (Wl_dimension.dimension (Cq.make (Builders.cycle 5) [ 0; 1; 2; 3; 4 ]));
  check_int "dim(full tree)" 1
    (Wl_dimension.dimension (Cq.make (Builders.path 4) [ 0; 1; 2; 3 ]))

let test_dimension_boolean () =
  (* (B): X = ∅ — deciding hom existence; C5 is a core with tw 2,
     C6 retracts to K2 with tw 1 *)
  check_int "boolean C5" 2 (Wl_dimension.dimension (Cq.make (Builders.cycle 5) []));
  check_int "boolean C6" 1 (Wl_dimension.dimension (Cq.make (Builders.cycle 6) []))

let test_dimension_disconnected () =
  (* (A): max over components *)
  let h = Ops.disjoint_union star2.Cq.graph star3.Cq.graph in
  (* free vars: leaves of both stars *)
  let q = Cq.make h [ 0; 1; 3; 4; 5 ] in
  check_int "disconnected = max of components" 3 (Wl_dimension.dimension q)

(* ------------------------------------------------------------------ *)
(* Lower-bound witness (Section 4)                                     *)
(* ------------------------------------------------------------------ *)

let witness_cases =
  [
    ("S2", star2, 2);
    ("S3", star3, 3);
    ("path2", path2_query, 2);
    ( "triangle-with-pendant-free",
      parse "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)",
      2 );
  ]

let test_witness_ansid_gap () =
  List.iter
    (fun (name, q, _k) ->
       let w = Wl_dimension.lower_bound_witness q in
       let even, odd = Wl_dimension.ans_id_counts w in
       check_bool (name ^ ": Lemma 57 strict gap") true (even > odd))
    witness_cases

let test_witness_lemma50 () =
  (* cpAns = Ans^id for counting-minimal queries *)
  List.iter
    (fun (name, q, _k) ->
       let w = Wl_dimension.lower_bound_witness q in
       let e1, o1 = Wl_dimension.ans_id_counts w in
       let e2, o2 = Wl_dimension.cp_ans_counts w in
       check_int (name ^ ": Lemma 50 even") e1 e2;
       check_int (name ^ ": Lemma 50 odd") o1 o2)
    witness_cases

let test_witness_wl_equivalence () =
  List.iter
    (fun (name, q, k) ->
       if k <= 3 then begin
         let w = Wl_dimension.lower_bound_witness q in
         check_bool (name ^ ": chi pair (k-1)-equivalent") true
           (Wl_dimension.witness_pair_equivalent w (k - 1))
       end)
    witness_cases

let test_witness_f_saturates () =
  List.iter
    (fun (name, q, k) ->
       let w = Wl_dimension.lower_bound_witness q in
       check_int (name ^ ": tw(F) = ew") k
         (Wlcq_treewidth.Exact.treewidth w.Wl_dimension.f.Extension.graph);
       check_int (name ^ ": ell odd") 1 (w.Wl_dimension.f.Extension.ell mod 2))
    witness_cases

let test_separating_pair () =
  List.iter
    (fun (name, q, k) ->
       match Wl_dimension.separating_pair ~max_z:2 q with
       | None -> Alcotest.fail (name ^ ": no separating pair found")
       | Some (g1, g2) ->
         let c1 = Cq.count_answers q g1 and c2 = Cq.count_answers q g2 in
         check_bool (name ^ ": answer counts differ") true (c1 <> c2);
         if k <= 2 then
           check_bool (name ^ ": pair is (k-1)-WL-equivalent") true
             (Wlcq_wl.Equivalence.equivalent (k - 1) g1 g2))
    (List.filter (fun (_, _, k) -> k >= 2) witness_cases)

let test_witness_rejects_full () =
  let q = Cq.make (Builders.cycle 4) [ 0; 1; 2; 3 ] in
  check_bool "full query rejected" true
    (try
       ignore (Wl_dimension.lower_bound_witness q);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Extendable assignments (Definition 51, Lemmas 52/55)                *)
(* ------------------------------------------------------------------ *)

let test_lemma52_claims () =
  (* the three claims of Lemma 52's proof, numerically *)
  List.iter
    (fun (name, q, _) ->
       let w = Wl_dimension.lower_bound_witness q in
       let se = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.even in
       let so = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.odd in
       let ce = Extendable.class_counts se in
       let co = Extendable.class_counts so in
       check_int (name ^ ": same number of classes") (Array.length ce)
         (Array.length co);
       (* Claim 1: classes i >= 1 have equal sizes *)
       for i = 1 to Array.length ce - 1 do
         check_int
           (Printf.sprintf "%s: Claim 1 class %d" name i)
           ce.(i) co.(i)
       done;
       (* Claims 2 and 3 *)
       check_bool (name ^ ": Claim 2") true (ce.(0) > 0);
       check_int (name ^ ": Claim 3") 0 co.(0);
       (* partition totals match the raw counts *)
       check_int (name ^ ": even partition total")
         (Extendable.count se)
         (Array.fold_left ( + ) 0 ce);
       check_int (name ^ ": odd partition total")
         (Extendable.count so)
         (Array.fold_left ( + ) 0 co))
    witness_cases

let test_extendable_equals_cpans () =
  List.iter
    (fun (name, q, _) ->
       let w = Wl_dimension.lower_bound_witness q in
       let setting_even =
         Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.even
       in
       let setting_odd =
         Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.odd
       in
       check_int (name ^ ": Lemma 55 (even twist)")
         (Extendable.count_cp_answers setting_even)
         (Extendable.count setting_even);
       check_int (name ^ ": Lemma 55 (odd twist)")
         (Extendable.count_cp_answers setting_odd)
         (Extendable.count setting_odd);
       check_bool (name ^ ": Lemma 52 strict inequality") true
         (Extendable.count setting_even > Extendable.count setting_odd))
    witness_cases

(* ------------------------------------------------------------------ *)
(* Interpolation upper bound (Lemma 22 / Observation 23)               *)
(* ------------------------------------------------------------------ *)

let test_interpolation_matches_direct () =
  let rng = Prng.create 7 in
  List.iter
    (fun q ->
       for _ = 1 to 4 do
         let g = Gen.gnp rng 4 0.5 in
         let direct = Cq.count_answers q g in
         let interp = Wl_dimension.answers_via_interpolation q g in
         check_bool "interpolation = direct" true
           (Bigint.equal interp (Bigint.of_int direct))
       done)
    [ star2; path2_query; edge_query;
      parse "(x) := exists y . E(x, y)" ]

let test_interpolation_full_query () =
  let q = Cq.make (Builders.path 3) [ 0; 1; 2 ] in
  let g = Builders.cycle 5 in
  check_bool "full query via interpolation" true
    (Bigint.equal
       (Wl_dimension.answers_via_interpolation q g)
       (Bigint.of_int (Cq.count_answers q g)))

let test_interpolation_guard () =
  check_bool "system size guard" true
    (try
       ignore
         (Wl_dimension.answers_via_interpolation ~max_system:4 star2
            (Builders.clique 5));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Quantum queries (Definition 63, Corollary 5)                        *)
(* ------------------------------------------------------------------ *)

let test_quantum_make_merges () =
  let q =
    Quantum.make_exn
      [ (Rat.of_int 2, star2); (Rat.of_int 3, star2); (Rat.one, star3) ]
  in
  check_int "merged terms" 2 (List.length (Quantum.terms q));
  let q0 =
    Quantum.make_exn [ (Rat.of_int 1, star2); (Rat.of_int (-1), star2) ]
  in
  check_int "cancelling terms vanish" 0 (List.length (Quantum.terms q0))

let test_quantum_validation () =
  let disconnected = Cq.make (Builders.matching 2) [ 0; 2 ] in
  check_bool "disconnected rejected" true
    (Result.is_error (Quantum.make [ (Rat.one, disconnected) ]));
  let boolean = Cq.make (Builders.cycle 3) [] in
  check_bool "boolean rejected" true
    (Result.is_error (Quantum.make [ (Rat.one, boolean) ]))

let test_quantum_evaluate () =
  let q = Quantum.make_exn [ (Rat.of_int 2, star2) ] in
  let g = Builders.cycle 5 in
  check_bool "2x star2" true
    (Rat.equal (Quantum.evaluate q g) (Rat.of_int 30))

let test_quantum_hsew () =
  let q =
    Quantum.make_exn [ (Rat.one, star3); (Rat.of_int (-2), edge_query) ]
  in
  check_int "hsew" 3 (Quantum.hsew q);
  check_int "wl dimension = hsew" 3 (Quantum.wl_dimension q)

let test_union_inclusion_exclusion () =
  let cases =
    [
      ([ edge_query; path2_query ], Builders.cycle 6);
      ([ edge_query; path2_query ], Builders.petersen ());
      ([ star2; edge_query ], Builders.clique 4);
      ([ parse "(x) := exists y . E(x, y)";
         parse "(x) := exists y1 y2 . E(x, y1) & E(x, y2) & E(y1, y2)" ],
       Builders.wheel 5);
    ]
  in
  List.iter
    (fun (qs, g) ->
       let direct = Enum_ref.count_union_answers qs g in
       let quantum = Quantum.evaluate (Quantum.of_union qs) g in
       check_bool "UCQ inclusion-exclusion" true
         (Rat.equal quantum (Rat.of_int direct)))
    cases

let test_conjoin () =
  (* edge ∧ path2 over (x1,x2): both an edge and a common neighbour *)
  let c = Quantum.conjoin edge_query path2_query in
  check_int "conjunction vertices" 3 (Graph.num_vertices c.Cq.graph);
  let g = Builders.clique 3 in
  (* in K3 every ordered distinct pair has an edge and a common
     neighbour: 6 answers *)
  check_int "conjunction answers" 6 (Cq.count_answers c g)

let test_injective_star_quantum () =
  (* Corollary 68 expansion: evaluation = injective star answers *)
  List.iter
    (fun g ->
       List.iter
         (fun k ->
            let quantum = Quantum.evaluate (Quantum.injective_star k) g in
            let direct = Enum_ref.count_injective_answers (Star.query k) g in
            check_bool "injective star quantum" true
              (Rat.equal quantum (Rat.of_int direct)))
         [ 1; 2; 3 ])
    [ Builders.cycle 5; Builders.clique 4; Builders.star 3 ]

let test_injective_expansion_general () =
  (* generalises injective_star: on stars both must agree *)
  List.iter
    (fun k ->
       let a = Quantum.injective_expansion (Star.query k) in
       let b = Quantum.injective_star k in
       List.iter
         (fun g ->
            check_bool "general = star-specific" true
              (Rat.equal (Quantum.evaluate a g) (Quantum.evaluate b g)))
         [ Builders.cycle 5; Builders.clique 4 ])
    [ 1; 2; 3 ];
  (* and on arbitrary queries it must match direct injective counting,
     as must the unnormalised Möbius sum *)
  List.iter
    (fun q ->
       List.iter
         (fun g ->
            let direct = Enum_ref.count_injective_answers q g in
            check_int "quantum injective = direct injective" direct
              (match Rat.to_bigint_opt (Quantum.evaluate (Quantum.injective_expansion q) g) with
               | Some v -> Option.value ~default:min_int (Bigint.to_int_opt v)
               | None -> min_int);
            check_string "Möbius sum = direct injective"
              (string_of_int direct)
              (Bigint.to_string (Quantum.count_injective_answers q g)))
         [ Builders.cycle 5; Builders.petersen () ])
    [ edge_query; path2_query;
      parse "(x1, x2, x3) := E(x1, x2) & E(x2, x3)" ]

let test_free_negations () =
  (* ¬E(x1, x2) on the 2-star: common neighbour but not adjacent *)
  let q = Quantum.with_free_negations star2 [ (0, 1) ] in
  List.iter
    (fun g ->
       let direct = Enum_ref.count_answers_with_negations star2 [ (0, 1) ] g in
       check_bool "negation expansion = direct" true
         (Rat.equal (Quantum.evaluate q g) (Rat.of_int direct)))
    [ Builders.cycle 5; Builders.clique 4; Builders.petersen ();
      Builders.grid 3 3 ];
  (* in K4 every pair is adjacent, so only the diagonal answers
     survive the negation *)
  check_int "K4 negated star" 4
    (Enum_ref.count_answers_with_negations star2 [ (0, 1) ] (Builders.clique 4))

let negation_qcheck =
  [
    QCheck.Test.make
      ~name:"negation expansion matches direct counting" ~count:25
      QCheck.(pair (int_range 2 5) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.5 in
         let q = Quantum.with_free_negations star2 [ (0, 1) ] in
         Rat.equal (Quantum.evaluate q g)
           (Rat.of_int
              (Enum_ref.count_answers_with_negations star2 [ (0, 1) ] g)));
    QCheck.Test.make
      ~name:"injective expansion matches direct counting" ~count:25
      QCheck.(pair (int_range 2 5) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.5 in
         let q = parse "(x1, x2) := exists y . E(x1, y) & E(y, x2)" in
         Rat.equal
           (Quantum.evaluate (Quantum.injective_expansion q) g)
           (Rat.of_int (Enum_ref.count_injective_answers q g)));
    QCheck.Test.make
      ~name:"injective count matches enumeration on random queries"
      ~count:60
      QCheck.(triple (int_range 1 5) (int_range 2 6) (int_bound 100000))
      (fun (nh, n, seed) ->
         (* any query: disconnected, boolean, edges inside X and
            isolated free variables all occur *)
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let free =
           List.filter (fun _ -> Prng.int rng 3 > 0) (List.init nh (fun v -> v))
         in
         let q = Cq.make h free in
         let g = Gen.gnp rng n 0.5 in
         String.equal
           (string_of_int (Enum_ref.count_injective_answers q g))
           (Bigint.to_string (Quantum.count_injective_answers q g)));
  ]

let test_quantum_lower_bound_witness () =
  (* Corollary 5 constructively: a (hsew-1)-WL-equivalent pair the
     quantum query tells apart *)
  let q = Quantum.of_union [ edge_query; star2 ] in
  check_int "hsew of the union" 2 (Quantum.hsew q);
  match Quantum.lower_bound_witness q with
  | None -> Alcotest.fail "expected a Corollary 5 witness"
  | Some (g1, g2) ->
    check_bool "evaluations differ" true
      (not (Rat.equal (Quantum.evaluate q g1) (Quantum.evaluate q g2)));
    check_bool "pair is (hsew-1)-WL-equivalent" true
      (Wlcq_wl.Equivalence.equivalent 1 g1 g2)

let test_injective_star_leading_coeff () =
  (* the paper notes c_k = 1 *)
  let q = Quantum.injective_star 4 in
  let leading =
    match
      List.find_opt
        (fun t -> Cq.num_free t.Quantum.query = 4)
        (Quantum.terms q)
    with
    | Some t -> t
    | None -> Alcotest.fail "no arity-4 term in the injective star"
  in
  check_bool "c_k = 1" true (Rat.equal leading.Quantum.coeff Rat.one)

(* ------------------------------------------------------------------ *)
(* Dominating sets (Corollary 6 / 68)                                  *)
(* ------------------------------------------------------------------ *)

let test_domset_known () =
  (* K4: every single vertex dominates *)
  check_string "K4 k=1" "4" (Bigint.to_string (Domset.count_direct 1 (Builders.clique 4)));
  (* C5: no single vertex dominates; pairs at distance 2 do *)
  check_string "C5 k=1" "0" (Bigint.to_string (Domset.count_direct 1 (Builders.cycle 5)));
  check_string "C5 k=2" "5" (Bigint.to_string (Domset.count_direct 2 (Builders.cycle 5)));
  (* Petersen: domination number 3 with exactly 10 minimum dominating sets *)
  check_string "petersen k=3" "10"
    (Bigint.to_string (Domset.count_direct 3 (Builders.petersen ())))

let test_domset_three_ways () =
  let graphs =
    [ Builders.cycle 5; Builders.cycle 6; Builders.clique 4;
      Builders.petersen (); Builders.star 4; Builders.grid 2 3 ]
  in
  List.iter
    (fun g ->
       List.iter
         (fun k ->
            let a = Domset.count_direct k g in
            let b = Enum_ref.count_domsets_via_stars k g in
            let c = Domset.count_via_quantum k g in
            check_bool "direct = stars" true (Bigint.equal a b);
            check_bool "direct = quantum" true (Bigint.equal a c))
         [ 1; 2; 3 ])
    graphs

let test_domset_srg_certificate () =
  (* Shrikhande vs rook are 2-WL-equivalent; Corollary 6 says
     3-dominating-set counting has WL-dimension 3, and indeed it
     separates the pair — while the dimension-2 star query agrees. *)
  let r = Builders.rook () and s = Builders.shrikhande () in
  check_int "star2 (dim 2) agrees on 2-WL-equivalent pair"
    (Cq.count_answers star2 r) (Cq.count_answers star2 s);
  let dr = Domset.count_direct 3 r and ds = Domset.count_direct 3 s in
  check_bool "3-domsets separate the 2-WL-equivalent pair" true
    (not (Bigint.equal dr ds));
  check_string "rook has no 3-dominating set" "0" (Bigint.to_string dr);
  check_string "shrikhande has 32" "32" (Bigint.to_string ds)

let domset_qcheck =
  [
    QCheck.Test.make ~name:"domset reductions agree on random graphs"
      ~count:25
      QCheck.(triple (int_range 1 3) (int_range 3 7) (int_bound 100000))
      (fun (k, n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.4 in
         let a = Domset.count_direct k g in
         Bigint.equal a (Enum_ref.count_domsets_via_stars k g)
         && Bigint.equal a (Domset.count_via_quantum k g));
    QCheck.Test.make ~name:"interpolation agrees on random star instances"
      ~count:15
      QCheck.(pair (int_range 2 4) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.5 in
         Bigint.equal
           (Wl_dimension.answers_via_interpolation star2 g)
           (Bigint.of_int (Cq.count_answers star2 g)));
  ]

(* ------------------------------------------------------------------ *)
(* Certificate: end-to-end Theorem 1 evidence                          *)
(* ------------------------------------------------------------------ *)

let test_certificates_valid () =
  List.iter
    (fun q ->
       let c = Certificate.certify q in
       check_bool "certificate valid" true (Certificate.is_valid c))
    [ star2; edge_query; path2_query;
      parse "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)";
      (* full query: upper bound only *)
      Cq.make (Builders.path 3) [ 0; 1; 2 ] ]

let test_certificate_structure () =
  let c = Certificate.certify star2 in
  check_int "dimension" 2 c.Certificate.dimension;
  (match c.Certificate.lower with
   | None -> Alcotest.fail "expected a lower bound section"
   | Some l ->
     check_int "tw(F) = dimension" 2 l.Certificate.f_treewidth;
     check_bool "ell odd" true (l.Certificate.ell mod 2 = 1);
     check_bool "strict gap" true
       (l.Certificate.ans_id_even > l.Certificate.ans_id_odd);
     check_bool "separating pair present" true
       (Option.is_some l.Certificate.separating));
  let cfull = Certificate.certify (Cq.make (Builders.cycle 4) [ 0; 1; 2; 3 ]) in
  check_bool "full query has no lower section" true
    (Option.is_none cfull.Certificate.lower);
  check_int "full query dimension = tw" 2 cfull.Certificate.dimension

let test_certificate_rejects () =
  check_bool "boolean rejected" true
    (try
       ignore (Certificate.certify (Cq.make (Builders.cycle 3) []));
       false
     with Invalid_argument _ -> true);
  check_bool "disconnected rejected" true
    (try
       ignore (Certificate.certify (Cq.make (Builders.matching 2) [ 0; 2 ]));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Acyclic: the Observation 62 walk semantics                          *)
(* ------------------------------------------------------------------ *)

let test_acyclic_skeleton () =
  let q = parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)" in
  let s = Acyclic.skeleton q in
  check_int "arity" 2 s.Acyclic.arity;
  check_bool "faithful" true s.Acyclic.faithful;
  Alcotest.(check (list (triple int int int))) "one weighted edge"
    [ (0, 1, 2) ] s.Acyclic.constraints;
  (* star3: the quantified centre touches three free variables *)
  let s3 = Acyclic.skeleton star3 in
  check_bool "star3 not faithful" false s3.Acyclic.faithful;
  (* dangling tails are dropped *)
  let q = parse "(x1, x2) := exists y . E(x1, x2) & E(x2, y)" in
  let s = Acyclic.skeleton q in
  check_bool "dangling dropped" true
    ((match s.Acyclic.constraints with
      | [ (0, 1, 0) ] -> true
      | _ -> false)
     && s.Acyclic.faithful)

let test_acyclic_walks () =
  let g = Builders.cycle 6 in
  check_bool "walk length 3 across C6" true (Acyclic.walk_exists g 0 3 3);
  check_bool "no odd walk to even distance" false
    (Acyclic.walk_exists g 0 3 4);
  check_bool "walk back and forth" true (Acyclic.walk_exists g 0 0 2)

let test_acyclic_counts_match () =
  let queries =
    [ edge_query; path2_query; star2;
      parse "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)";
      parse "(x1) := exists y1 y2 . E(x1, y1) & E(y1, y2)";
      parse "(x1, x2, x3) := E(x1, x2) & E(x2, x3)" ]
  in
  let graphs =
    [ Builders.cycle 6; Builders.two_triangles (); Builders.petersen ();
      Builders.clique 4 ]
  in
  List.iter
    (fun q ->
       List.iter
         (fun g ->
            check_int "walk semantics = answers" (Cq.count_answers q g)
              (Acyclic.count_answers_walks q g))
         graphs)
    queries

let test_acyclic_guards () =
  check_bool "star3 rejected" true
    (try
       ignore (Acyclic.count_answers_walks star3 (Builders.cycle 5));
       false
     with Invalid_argument _ -> true);
  check_bool "isolated vertices rejected" true
    (try
       ignore (Acyclic.count_answers_walks edge_query (Graph.empty 3));
       false
     with Invalid_argument _ -> true);
  check_bool "cyclic query rejected" true
    (try
       ignore (Acyclic.skeleton (Cq.make (Builders.cycle 3) [ 0 ]));
       false
     with Invalid_argument _ -> true)

let acyclic_qcheck =
  [
    QCheck.Test.make
      ~name:"walk semantics matches enumeration on faithful queries"
      ~count:40
      QCheck.(quad (int_range 2 6) (int_range 1 3) (int_range 3 6)
                (int_bound 100000))
      (fun (nh, nfree, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.random_tree rng nh in
         let vs = Array.init nh (fun i -> i) in
         Prng.shuffle rng vs;
         let q = Cq.make h (Array.to_list (Array.sub vs 0 (min nfree nh))) in
         let s = Acyclic.skeleton q in
         QCheck.assume s.Acyclic.faithful;
         (* cycle graphs have no isolated vertices *)
         let g = Builders.cycle ng in
         Acyclic.count_answers_walks q g = Cq.count_answers q g);
  ]

(* ------------------------------------------------------------------ *)
(* Ucq: first-class unions of conjunctive queries                      *)
(* ------------------------------------------------------------------ *)

let test_ucq_parse_and_count () =
  match Ucq.of_string
          "(x1, x2) := E(x1, x2) | exists y . E(x1, y) & E(y, x2)"
  with
  | Error e -> Alcotest.fail e
  | Ok u ->
    check_int "two disjuncts" 2 (List.length (Ucq.disjuncts u));
    (* adjacent-or-distance-2 pairs in C6: adjacent 12, distance-2 12,
       plus diagonal pairs with a common neighbour... the count goes
       through the quantum expansion, so compare it against direct
       enumeration of the union *)
    List.iter
      (fun g ->
         let direct = Enum_ref.count_union_answers (Ucq.disjuncts u) g in
         check_bool "quantum = direct" true
           (Bigint.equal (Ucq.count_answers u g) (Bigint.of_int direct)))
      [ Builders.cycle 6; Builders.petersen (); Builders.clique 4 ]

let test_ucq_dimension () =
  match Ucq.of_string
          "(x1, x2) := E(x1, x2) | exists y . E(x1, y) & E(x2, y)"
  with
  | Error e -> Alcotest.fail e
  | Ok u -> check_int "dimension via hsew" 2 (Ucq.wl_dimension u)

let test_ucq_validation () =
  check_bool "arity mismatch rejected" true
    (Result.is_error
       (Ucq.of_string "(x1, x2) := E(x1, x2) | E(x1, x1)"));
  check_bool "empty rejected" true
    (try
       ignore (Ucq.make []);
       false
     with Invalid_argument _ -> true);
  (* scoping: the same existential name in two disjuncts is two
     distinct variables *)
  match
    Ucq.of_string
      "(x) := exists y . E(x, y) | exists y . E(y, x)"
  with
  | Error e -> Alcotest.fail e
  | Ok u -> check_int "scoped existentials" 2 (List.length (Ucq.disjuncts u))

(* ------------------------------------------------------------------ *)
(* Invariant: WL-dimension bounds for graph parameters                 *)
(* ------------------------------------------------------------------ *)

let test_witness_pairs_sound () =
  (* every library pair must actually be k-WL-equivalent and
     non-isomorphic *)
  List.iter
    (fun (name, k, g1, g2) ->
       check_bool (name ^ " non-isomorphic") false (Iso.isomorphic g1 g2);
       check_bool (name ^ " k-equivalent") true
         (Wlcq_wl.Equivalence.equivalent k g1 g2))
    (Invariant.witness_pairs ())

let test_invariant_bounds () =
  let lib = Invariant.standard_library () in
  let find name =
    match
      List.find_opt (fun p -> String.equal p.Invariant.name name) lib
    with
    | Some p -> p
    | None -> Alcotest.fail ("missing invariant " ^ name)
  in
  check_bool "edges never separate" true
    (Option.is_none (Invariant.dimension_lower_bound (find "num-edges")));
  (match Invariant.dimension_lower_bound (find "triangles") with
   | Some (2, _) -> ()
   | _ -> Alcotest.fail "triangles should give lower bound 2");
  (match Invariant.dimension_lower_bound (find "domsets-3") with
   | Some (3, _) -> ()
   | _ -> Alcotest.fail "domsets-3 should give lower bound 3");
  check_bool "charpoly consistent with dim 2" true
    (Invariant.invariant_on_pairs (find "charpoly") ~dim:2);
  check_bool "charpoly not consistent with dim 1" false
    (Invariant.invariant_on_pairs (find "charpoly") ~dim:1)

let test_invariant_of_query () =
  (* the query-based parameter matches Cq.count_answers *)
  let p = Invariant.of_query "star2" star2 in
  check_string "query parameter value" "15" (p.Invariant.value (Builders.cycle 5))

(* ------------------------------------------------------------------ *)
(* Fast_count: the Corollary 4 polynomial-time counting algorithm      *)
(* ------------------------------------------------------------------ *)

let test_fast_count_known () =
  let cases =
    [
      (star2, Builders.cycle 5, 15);
      (star3, Builders.petersen (), 250);
      (edge_query, Builders.petersen (), 30);
      (path2_query, Builders.clique 3, 9);
      (parse "(x) := exists y . E(x, y)", Builders.star 4, 5);
    ]
  in
  List.iter
    (fun (q, g, expected) ->
       check_bool "fast count known" true
         (Bigint.equal (Fast_count.count_answers q g) (Bigint.of_int expected)))
    cases

let test_fast_count_edge_cases () =
  (* boolean query *)
  check_bool "boolean true" true
    (Bigint.equal
       (Fast_count.count_answers (Cq.make (Builders.cycle 3) []) (Builders.clique 4))
       Bigint.one);
  check_bool "boolean false" true
    (Bigint.is_zero
       (Fast_count.count_answers (Cq.make (Builders.cycle 3) []) (Builders.cycle 6)));
  (* empty data graph *)
  check_bool "empty target" true
    (Bigint.is_zero (Fast_count.count_answers star2 (Graph.empty 0)));
  (* full query *)
  let q = Cq.make (Builders.path 3) [ 0; 1; 2 ] in
  check_bool "full query" true
    (Bigint.equal
       (Fast_count.count_answers q (Builders.cycle 4))
       (Bigint.of_int (Cq.count_answers q (Builders.cycle 4))));
  (* disconnected query with an unattached boolean component *)
  let h = Ops.disjoint_union (Builders.star 1) (Builders.cycle 3) in
  let q = Cq.make h [ 0 ] in
  check_bool "boolean component satisfied" true
    (Bigint.equal
       (Fast_count.count_answers q (Builders.clique 4))
       (Bigint.of_int (Cq.count_answers q (Builders.clique 4))));
  check_bool "boolean component unsatisfied" true
    (Bigint.is_zero (Fast_count.count_answers q (Builders.cycle 6)))

let fast_count_qcheck =
  [
    QCheck.Test.make
      ~name:"fast count agrees with enumeration on random queries" ~count:60
      QCheck.(quad (int_range 1 5) (int_range 0 4) (int_range 1 6)
                (int_bound 100000))
      (fun (nh, extra, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng (nh + extra) 0.5 in
         (* free variables: a random subset of size nh *)
         let vs = Array.init (nh + extra) (fun i -> i) in
         Prng.shuffle rng vs;
         let free = Array.to_list (Array.sub vs 0 nh) in
         let q = Cq.make h free in
         let g = Gen.gnp rng ng 0.5 in
         Bigint.equal (Fast_count.count_answers q g)
           (Bigint.of_int (Cq.count_answers q g)));
    QCheck.Test.make
      ~name:"fast count agrees with interpolation on connected queries"
      ~count:20
      QCheck.(pair (int_range 2 4) (int_bound 100000))
      (fun (nh, seed) ->
         let rng = Prng.create seed in
         let h = Gen.random_connected rng nh 0.4 in
         let q = Cq.make h [ 0 ] in
         let g = Gen.gnp rng 4 0.5 in
         Bigint.equal (Fast_count.count_answers q g)
           (Wl_dimension.answers_via_interpolation q g));
  ]

(* ------------------------------------------------------------------ *)
(* Packed engines vs reference oracles (core-level workloads)          *)
(* ------------------------------------------------------------------ *)

let test_td_packed_on_cfi_pairs () =
  (* CFI witness pairs are the adversarial instances of the paper; the
     packed engine must agree with the reference on both sides of each
     pair, for patterns that do and do not distinguish them. *)
  let patterns =
    [ Builders.path 3; Builders.cycle 4; Builders.star 3; Builders.cycle 3 ]
  in
  List.iter
    (fun base ->
       let even, odd = Wlcq_cfi.Pairs.twisted_pair base in
       List.iter
         (fun h ->
            List.iter
              (fun (tag, g) ->
                 check_bool
                   (Printf.sprintf "packed=reference on CFI %s side" tag)
                   true
                   (Bigint.equal
                      (Wlcq_hom.Td_count.count h g)
                      (Td_ref.count h g)))
              [ ("even", even.Wlcq_cfi.Cfi.graph); ("odd", odd.Wlcq_cfi.Cfi.graph) ])
         patterns)
    [ Builders.cycle 4; Builders.path 4 ]

let test_count_many_on_extension_family () =
  (* The real Lemma 22 workload: F_1 ⊆ … ⊆ F_L for a quantified query,
     batch counts vs independent reference counts. *)
  let q = parse "(x1, x2) := exists y . E(x1, y) & E(y, x2)" in
  let core = Minimize.counting_core q in
  let g = Builders.petersen () in
  let patterns =
    List.init 4 (fun i -> (Extension.f_ell core (i + 1)).Extension.graph)
  in
  let batch = Wlcq_hom.Td_count.count_many patterns g in
  List.iter2
    (fun h b ->
       check_bool "count_many = reference on F_ell" true
         (Bigint.equal b (Td_ref.count h g)))
    patterns batch

let packed_core_qcheck =
  [
    QCheck.Test.make
      ~name:"packed fast count equals reference oracle on random queries"
      ~count:50
      QCheck.(quad (int_range 1 4) (int_range 1 3) (int_range 1 6)
                (int_bound 100000))
      (fun (num_free, extra, ng, seed) ->
         let rng = Prng.create seed in
         let q =
           Gen_query.random_connected rng ~num_vars:(num_free + extra)
             ~num_free ~edge_prob:0.5
         in
         let g = Gen.gnp rng ng 0.5 in
         Bigint.equal (Fast_count.count_answers q g)
           (Fast_ref.count_answers q g));
    QCheck.Test.make
      ~name:"count_many equals reference on random f_ell families" ~count:25
      QCheck.(triple (int_range 2 4) (int_range 2 5) (int_bound 100000))
      (fun (num_vars, ng, seed) ->
         let rng = Prng.create seed in
         let q =
           Gen_query.random_connected rng ~num_vars ~num_free:1 ~edge_prob:0.5
         in
         let core = Minimize.counting_core q in
         let g = Gen.gnp rng ng 0.5 in
         let patterns =
           List.init 3 (fun i -> (Extension.f_ell core (i + 1)).Extension.graph)
         in
         let batch = Wlcq_hom.Td_count.count_many patterns g in
         let indiv =
           List.map
             (fun h -> Td_ref.count h g)
             patterns
         in
         List.for_all2 Bigint.equal batch indiv);
  ]

(* ------------------------------------------------------------------ *)
(* Observation 62: acyclic queries cannot separate 2K3 from C6         *)
(* ------------------------------------------------------------------ *)

let acyclic_family =
  [
    "(x) := exists y . E(x, y)";
    "(x1, x2) := E(x1, x2)";
    "(x1, x2) := exists y . E(x1, y) & E(y, x2)";
    "(x1, x2) := exists y . E(x1, y) & E(x2, y)";
    "(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)";
    "(x1) := exists y1 y2 y3 . E(x1, y1) & E(y1, y2) & E(y2, y3)";
    "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)";
    "(x1, x2, x3) := E(x1, x2) & E(x2, x3)";
  ]

let test_observation62 () =
  let g1 = Builders.two_triangles () and g2 = Builders.cycle 6 in
  List.iter
    (fun s ->
       let q = parse s in
       check_bool ("acyclic: " ^ s) true
         (Traversal.is_forest q.Cq.graph);
       check_int ("Obs 62: " ^ s) (Cq.count_answers q g1)
         (Cq.count_answers q g2))
    acyclic_family

let test_observation62_control () =
  (* a non-acyclic query (the triangle) distinguishes the pair *)
  let q = parse "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)" in
  let c1 = Cq.count_answers q (Builders.two_triangles ()) in
  let c2 = Cq.count_answers q (Builders.cycle 6) in
  check_bool "triangle query separates" true (c1 <> c2)

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "wlcq_core"
    [
      ( "cq",
        [
          Alcotest.test_case "make validation" `Quick test_cq_make_validation;
          Alcotest.test_case "classification" `Quick test_cq_classification;
          Alcotest.test_case "full = homs" `Quick
            test_full_query_answers_are_homs;
          Alcotest.test_case "boolean decision" `Quick
            test_boolean_query_decision;
          Alcotest.test_case "star semantics" `Quick
            test_star_answers_semantics;
          Alcotest.test_case "known counts" `Quick test_count_answers_known;
          Alcotest.test_case "injective answers" `Quick test_injective_answers;
          Alcotest.test_case "query isomorphism" `Quick test_query_isomorphism;
          Alcotest.test_case "partial automorphisms" `Quick
            test_partial_automorphisms;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "whitespace" `Quick
            test_parser_whitespace_insensitive;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "minimal examples" `Quick test_minimal_examples;
          Alcotest.test_case "pendant tail" `Quick test_nonminimal_pendant;
          Alcotest.test_case "answers preserved" `Quick
            test_core_preserves_answers;
          Alcotest.test_case "shrinking endomorphism" `Quick
            test_shrinking_endomorphism_properties;
          Alcotest.test_case "tripped budget" `Quick test_core_tripped_budget;
        ] );
      qsuite "minimize-properties" (minimize_qcheck @ core_differential_qcheck);
      ( "extension",
        [
          Alcotest.test_case "gamma star clique" `Quick test_gamma_star_clique;
          Alcotest.test_case "gamma full" `Quick test_gamma_no_quantified;
          Alcotest.test_case "gamma components" `Quick
            test_gamma_two_components;
          Alcotest.test_case "known widths" `Quick test_widths_known;
          Alcotest.test_case "F_ell structure" `Quick test_f_ell_structure;
          Alcotest.test_case "Corollary 18" `Quick test_corollary18;
          Alcotest.test_case "saturating ell" `Quick test_saturating_ell;
          Alcotest.test_case "contract" `Quick test_contract;
        ] );
      ( "gen-query",
        [ Alcotest.test_case "generators" `Quick test_gen_query ] );
      qsuite "extension-properties" extension_qcheck;
      ( "theorem1",
        [
          Alcotest.test_case "examples" `Quick test_dimension_examples;
          Alcotest.test_case "boolean queries" `Quick test_dimension_boolean;
          Alcotest.test_case "disconnected queries" `Quick
            test_dimension_disconnected;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "Ans^id gap (Lemma 57)" `Quick
            test_witness_ansid_gap;
          Alcotest.test_case "Lemma 50" `Quick test_witness_lemma50;
          Alcotest.test_case "WL equivalence (Lemma 35)" `Slow
            test_witness_wl_equivalence;
          Alcotest.test_case "F saturates ew" `Quick test_witness_f_saturates;
          Alcotest.test_case "separating pair (Lemma 40)" `Slow
            test_separating_pair;
          Alcotest.test_case "full query rejected" `Quick
            test_witness_rejects_full;
        ] );
      ( "extendable",
        [
          Alcotest.test_case "Lemmas 52/55" `Quick test_extendable_equals_cpans;
          Alcotest.test_case "Lemma 52 claims 1-3" `Quick test_lemma52_claims;
        ] );
      ( "interpolation",
        [
          Alcotest.test_case "matches direct" `Quick
            test_interpolation_matches_direct;
          Alcotest.test_case "full query" `Quick test_interpolation_full_query;
          Alcotest.test_case "guard" `Quick test_interpolation_guard;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "make merges" `Quick test_quantum_make_merges;
          Alcotest.test_case "validation" `Quick test_quantum_validation;
          Alcotest.test_case "evaluate" `Quick test_quantum_evaluate;
          Alcotest.test_case "hsew" `Quick test_quantum_hsew;
          Alcotest.test_case "UCQ inclusion-exclusion" `Quick
            test_union_inclusion_exclusion;
          Alcotest.test_case "conjoin" `Quick test_conjoin;
          Alcotest.test_case "injective star" `Quick
            test_injective_star_quantum;
          Alcotest.test_case "leading coefficient" `Quick
            test_injective_star_leading_coeff;
          Alcotest.test_case "Corollary 5 witness" `Quick
            test_quantum_lower_bound_witness;
          Alcotest.test_case "injective expansion" `Quick
            test_injective_expansion_general;
          Alcotest.test_case "free negations" `Quick test_free_negations;
        ] );
      qsuite "negation-properties" negation_qcheck;
      ( "domset",
        [
          Alcotest.test_case "known counts" `Quick test_domset_known;
          Alcotest.test_case "three ways" `Quick test_domset_three_ways;
          Alcotest.test_case "SRG certificate" `Quick
            test_domset_srg_certificate;
        ] );
      qsuite "domset-properties" domset_qcheck;
      ( "certificate",
        [
          Alcotest.test_case "valid end-to-end" `Slow test_certificates_valid;
          Alcotest.test_case "structure" `Quick test_certificate_structure;
          Alcotest.test_case "rejects" `Quick test_certificate_rejects;
        ] );
      ( "acyclic",
        [
          Alcotest.test_case "skeleton" `Quick test_acyclic_skeleton;
          Alcotest.test_case "walks" `Quick test_acyclic_walks;
          Alcotest.test_case "counts match" `Quick test_acyclic_counts_match;
          Alcotest.test_case "guards" `Quick test_acyclic_guards;
        ] );
      qsuite "acyclic-properties" acyclic_qcheck;
      ( "ucq",
        [
          Alcotest.test_case "parse and count" `Quick test_ucq_parse_and_count;
          Alcotest.test_case "dimension" `Quick test_ucq_dimension;
          Alcotest.test_case "validation" `Quick test_ucq_validation;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "witness pairs sound" `Slow
            test_witness_pairs_sound;
          Alcotest.test_case "bounds" `Quick test_invariant_bounds;
          Alcotest.test_case "query parameters" `Quick test_invariant_of_query;
        ] );
      ( "fast-count",
        [
          Alcotest.test_case "known values" `Quick test_fast_count_known;
          Alcotest.test_case "edge cases" `Quick test_fast_count_edge_cases;
        ] );
      qsuite "fast-count-properties" fast_count_qcheck;
      ( "packed-engine",
        [
          Alcotest.test_case "td packed vs reference on CFI pairs" `Quick
            test_td_packed_on_cfi_pairs;
          Alcotest.test_case "count_many on extension family" `Quick
            test_count_many_on_extension_family;
        ] );
      qsuite "packed-core-properties" packed_core_qcheck;
      ( "observation62",
        [
          Alcotest.test_case "acyclic family" `Quick test_observation62;
          Alcotest.test_case "non-acyclic control" `Quick
            test_observation62_control;
        ] );
    ]
