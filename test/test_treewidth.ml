open Wlcq_graph
open Wlcq_treewidth
module Nice = Wlcq_oracle.Nice
module Prng = Wlcq_util.Prng
module Bitset = Wlcq_util.Bitset
module Obs = Wlcq_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Known treewidths used throughout the suite. *)
let known =
  [
    ("K1", Builders.clique 1, 0);
    ("K2", Builders.clique 2, 1);
    ("K5", Builders.clique 5, 4);
    ("P6", Builders.path 6, 1);
    ("C5", Builders.cycle 5, 2);
    ("C8", Builders.cycle 8, 2);
    ("star7", Builders.star 7, 1);
    ("K33", Builders.complete_bipartite 3 3, 3);
    ("K27", Builders.complete_bipartite 2 7, 2);
    ("grid3x3", Builders.grid 3 3, 3);
    ("grid3x5", Builders.grid 3 5, 3);
    ("grid4x4", Builders.grid 4 4, 4);
    ("petersen", Builders.petersen (), 4);
    ("Q3", Builders.hypercube 3, 3);
    ("2K3", Builders.two_triangles (), 2);
    ("wheel6", Builders.wheel 6, 3);
    ("edgeless", Graph.empty 5, 0);
  ]

let test_known_treewidths () =
  List.iter
    (fun (name, g, expected) ->
       check_int ("tw " ^ name) expected (Exact.treewidth g))
    known

let test_empty_graph () =
  check_int "tw of empty graph" (-1) (Exact.treewidth (Graph.empty 0))

let test_dp_agrees () =
  List.iter
    (fun (name, g, expected) ->
       if Graph.num_vertices g <= 16 then
         check_int ("dp tw " ^ name) expected (Exact.treewidth_dp g))
    known

let test_optimal_decomposition_valid () =
  List.iter
    (fun (name, g, expected) ->
       if Graph.num_vertices g > 0 then begin
         let d = Exact.optimal_decomposition g in
         check_bool ("valid decomposition " ^ name) true
           (Decomposition.is_valid_for d g);
         check_int ("decomposition width " ^ name) expected
           (Decomposition.width d)
       end)
    known

let test_is_at_most () =
  let g = Builders.grid 3 3 in
  check_bool "grid tw <= 3" true (Exact.is_at_most g 3);
  check_bool "grid tw not <= 2" false (Exact.is_at_most g 2)

let test_heuristics_bracket () =
  List.iter
    (fun (name, g, expected) ->
       if Graph.num_vertices g > 0 then begin
         check_bool ("ub >= tw " ^ name) true
           (Heuristics.upper_bound g >= expected);
         check_bool ("lb <= tw " ^ name) true
           (Heuristics.lower_bound g <= expected)
       end)
    known

let test_width_of_order () =
  (* eliminating a path from one end has width 1 *)
  let g = Builders.path 5 in
  check_int "path natural order" 1
    (Elimination.width_of_order g [ 0; 1; 2; 3; 4 ]);
  (* eliminating the middle of a path first costs 2 *)
  check_int "path bad order" 2
    (Elimination.width_of_order g [ 2; 0; 1; 3; 4 ])

let test_fill_graph () =
  (* eliminating the centre of a star first fills the leaves into a
     clique *)
  let g = Builders.star 3 in
  let f = Elimination.fill_graph g [ 0; 1; 2; 3 ] in
  check_int "star fill-in is K4" 6 (Graph.num_edges f)

let test_decomposition_validation () =
  let g = Builders.cycle 4 in
  let bad =
    Decomposition.make (Graph.empty 1) [| Bitset.of_list 4 [ 0; 1 ] |]
  in
  check_bool "missing vertices rejected" false
    (Decomposition.is_valid_for bad g);
  let trivial = Decomposition.singleton g in
  check_bool "singleton always valid" true
    (Decomposition.is_valid_for trivial g);
  check_int "singleton width" 3 (Decomposition.width trivial)

let test_disconnected () =
  let g = Ops.disjoint_union (Builders.clique 4) (Builders.cycle 5) in
  check_int "tw of disjoint union" 3 (Exact.treewidth g);
  let d = Exact.optimal_decomposition g in
  check_bool "disconnected decomposition valid" true
    (Decomposition.is_valid_for d g)

let search_nodes = Obs.counter "tw.search_nodes"

(* [nodes_of f] is the number of branch-and-bound nodes visited while
   running [f]: on most small draws the heuristic bracket is already
   tight and the search never starts. *)
let nodes_of f =
  Obs.set_enabled true;
  let before = Obs.counter_value search_nodes in
  f ();
  Obs.counter_value search_nodes - before

(* More than 62 vertices, so every adjacency row spans two words: 56
   isolated vertices, then a G(14, 0.4) core the branch and bound has
   to search (lb < ub).  The core's vertices 56..69 straddle the word
   boundary at 62.  Every pass eliminates the isolated vertices first
   (degree 0, lowest ids) and must then retrace its one-word run on
   the core alone: the same greedy order, the same MMD+ bound, and the
   same search after one forced node per isolated vertex. *)
let test_wide_rows () =
  let core = Gen.gnp (Prng.create 2) 14 0.4 in
  let lb = Heuristics.lower_bound core in
  let ub, order = Heuristics.upper_bound_order core in
  check_bool "the core's bracket is open" true (lb < ub);
  let core_nodes = nodes_of (fun () -> ignore (Exact.treewidth core)) in
  let g = Ops.disjoint_union (Graph.empty 56) core in
  check_int "70 vertices" 70 (Graph.num_vertices g);
  let ub_g, order_g = Heuristics.upper_bound_order g in
  check_int "greedy width" ub ub_g;
  Alcotest.(check (list int)) "greedy order"
    (List.init 56 Fun.id @ List.map (( + ) 56) order)
    order_g;
  check_int "MMD+ bound" lb (Heuristics.lower_bound g);
  let w = ref (-1) in
  check_int "search nodes" (core_nodes + 56)
    (nodes_of (fun () -> w := Exact.treewidth g));
  check_int "tw is the core's" (Exact.treewidth_dp core) !w;
  let d = Exact.optimal_decomposition g in
  check_bool "optimal decomposition valid" true
    (Decomposition.is_valid_for d g);
  check_int "optimal decomposition tight" !w (Decomposition.width d)

let test_nice_structure () =
  List.iter
    (fun (name, g, expected) ->
       if Graph.num_vertices g > 0 then begin
         let d = Exact.optimal_decomposition g in
         let nd = Nice.of_decomposition d ~universe:(Graph.num_vertices g) in
         check_bool ("nice valid " ^ name) true (Nice.is_valid_for nd g);
         check_int ("nice width " ^ name) expected (Nice.width nd)
       end)
    known

let test_nice_empty () =
  let g = Graph.empty 0 in
  let d = Exact.optimal_decomposition g in
  let nd = Nice.of_decomposition d ~universe:0 in
  check_bool "nice of empty valid" true (Nice.is_valid_for nd g);
  check_int "nice of empty width" (-1) (Nice.width nd)

let nice_qcheck =
  [
    QCheck.Test.make ~name:"nice conversion is valid and width-preserving"
      ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.4 in
         let d = Exact.optimal_decomposition g in
         let nd = Nice.of_decomposition d ~universe:n in
         Nice.is_valid_for nd g && Nice.width nd = Decomposition.width d);
  ]

(* the two differentials of the branch and bound, on G(n, 0.4) *)
let bb_agrees_with_dp (n, seed) =
  let g = Gen.gnp (Prng.create seed) n 0.4 in
  Exact.treewidth g = Exact.treewidth_dp g

let decomposition_valid_and_tight (n, seed) =
  let g = Gen.gnp (Prng.create seed) n 0.4 in
  let d = Exact.optimal_decomposition g in
  Decomposition.is_valid_for d g && Decomposition.width d = Exact.treewidth g

let treewidth_qcheck =
  [
    QCheck.Test.make ~name:"bb agrees with subset dp" ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      bb_agrees_with_dp;
    QCheck.Test.make ~name:"optimal decomposition is valid and tight"
      ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      decomposition_valid_and_tight;
    QCheck.Test.make ~name:"treewidth of trees is at most 1" ~count:40
      QCheck.(pair (int_range 2 20) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         Exact.treewidth (Gen.random_tree rng n) = 1);
    QCheck.Test.make ~name:"any elimination order upper-bounds tw" ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.4 in
         let order = Array.init n (fun i -> i) in
         Prng.shuffle rng order;
         Elimination.width_of_order g (Array.to_list order)
         >= Exact.treewidth g);
    QCheck.Test.make ~name:"random order yields valid decomposition"
      ~count:40
      QCheck.(pair (int_range 1 9) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.4 in
         let order = Array.init n (fun i -> i) in
         Prng.shuffle rng order;
         let order = Array.to_list order in
         let d = Elimination.decomposition_of_order g order in
         Decomposition.is_valid_for d g
         && Decomposition.width d = Elimination.width_of_order g order);
    QCheck.Test.make ~name:"treewidth monotone under vertex deletion"
      ~count:40
      QCheck.(pair (int_range 2 9) (int_bound 100000))
      (fun (n, seed) ->
         let rng = Prng.create seed in
         let g = Gen.gnp rng n 0.4 in
         let v = Prng.int rng n in
         Exact.treewidth (Ops.remove_vertex g v) <= Exact.treewidth g);
  ]

(* The two differentials on n = 10..14, where the bracket is open
   often enough for the branch and bound to run: lb < ub on about 5% of
   G(10, 0.4) draws and 55% at n = 14.  (At n <= 9 it almost never
   is.) *)
let search_qcheck =
  [
    QCheck.Test.make ~name:"bb agrees with subset dp, n = 10..14" ~count:40
      QCheck.(pair (int_range 10 14) (int_bound 100000))
      bb_agrees_with_dp;
    QCheck.Test.make
      ~name:"optimal decomposition is valid and tight, n = 10..14" ~count:40
      QCheck.(pair (int_range 10 14) (int_bound 100000))
      decomposition_valid_and_tight;
  ]

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  (* a property run that must also have searched *)
  let searching t =
    let name, speed, run = QCheck_alcotest.to_alcotest ~long:false t in
    (name, speed, fun () -> check_bool "the search ran" true (nodes_of run > 0))
  in
  Alcotest.run "wlcq_treewidth"
    [
      ( "exact",
        [
          Alcotest.test_case "known treewidths" `Quick test_known_treewidths;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "dp agrees" `Quick test_dp_agrees;
          Alcotest.test_case "optimal decomposition" `Quick
            test_optimal_decomposition_valid;
          Alcotest.test_case "is_at_most" `Quick test_is_at_most;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "rows wider than one word" `Quick test_wide_rows;
        ] );
      ( "heuristics",
        [ Alcotest.test_case "bracket" `Quick test_heuristics_bracket ] );
      ( "elimination",
        [
          Alcotest.test_case "width of order" `Quick test_width_of_order;
          Alcotest.test_case "fill graph" `Quick test_fill_graph;
        ] );
      ( "decomposition",
        [ Alcotest.test_case "validation" `Quick test_decomposition_validation ]
      );
      ( "nice",
        [
          Alcotest.test_case "structure" `Quick test_nice_structure;
          Alcotest.test_case "empty" `Quick test_nice_empty;
        ] );
      qsuite "nice-properties" nice_qcheck;
      qsuite "properties" treewidth_qcheck;
      ("bb-properties", List.map searching search_qcheck);
    ]
