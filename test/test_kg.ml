open Wlcq_kg
module G = Wlcq_graph
module Core = Wlcq_core
module Prng = Wlcq_util.Prng
module Kg_kwl_ref = Wlcq_oracle.Kg_kwl_ref
module Core_ref = Wlcq_oracle.Core_ref
module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a small social-network-style knowledge graph:
   labels: 1 = Person, 2 = Company
   relations: 0 = knows, 1 = worksAt *)
let social () =
  Kgraph.create ~n:5
    ~vertex_labels:[| 1; 1; 1; 2; 2 |]
    ~edges:
      [ (0, 1, 0); (1, 0, 0); (1, 2, 0);  (* knows *)
        (0, 3, 1); (1, 3, 1); (2, 4, 1) ] (* worksAt *)

(* ------------------------------------------------------------------ *)
(* Kgraph                                                              *)
(* ------------------------------------------------------------------ *)

let test_kgraph_basics () =
  let g = social () in
  check_int "vertices" 5 (Kgraph.num_vertices g);
  check_int "edges" 6 (Kgraph.num_edges g);
  check_bool "directed edge present" true (Kgraph.has_edge g 0 1 0);
  check_bool "reverse not implied" false (Kgraph.has_edge g 2 1 0);
  check_bool "label matters" false (Kgraph.has_edge g 0 1 1);
  check_int "vertex label" 2 (Kgraph.vertex_label g 3);
  Alcotest.(check (list int)) "edge labels" [ 0; 1 ] (Kgraph.edge_labels g)

let test_kgraph_validation () =
  check_bool "self-loop rejected" true
    (try
       ignore (Kgraph.create ~n:2 ~vertex_labels:[| 0; 0 |]
                 ~edges:[ (1, 1, 0) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "label array size" true
    (try
       ignore (Kgraph.create ~n:2 ~vertex_labels:[| 0 |] ~edges:[]);
       false
     with Invalid_argument _ -> true)

let test_kgraph_parallel_edges () =
  (* parallel edges with distinct labels are allowed and kept *)
  let g =
    Kgraph.create ~n:2 ~vertex_labels:[| 0; 0 |]
      ~edges:[ (0, 1, 0); (0, 1, 1); (0, 1, 0) ]
  in
  check_int "two labelled edges after dedup" 2 (Kgraph.num_edges g);
  check_int "underlying has one edge" 1
    (G.Graph.num_edges (Kgraph.underlying g))

let test_kgraph_encoding () =
  let g = G.Builders.petersen () in
  let kg = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
  check_int "both directions" 30 (Kgraph.num_edges kg);
  check_bool "underlying round trip" true
    (G.Graph.equal (Kgraph.underlying kg) g)

(* ------------------------------------------------------------------ *)
(* Khom                                                                *)
(* ------------------------------------------------------------------ *)

let test_khom_direction_sensitive () =
  (* pattern u -r-> v embeds along each directed edge only *)
  let pattern =
    Kgraph.create ~n:2 ~vertex_labels:[| 1; 2 |] ~edges:[ (0, 1, 1) ]
  in
  let g = social () in
  (* worksAt edges from Person to Company: exactly 3 *)
  check_int "typed directed edge count" 3 (Khom.count pattern g);
  (* reversed pattern finds nothing *)
  let reversed =
    Kgraph.create ~n:2 ~vertex_labels:[| 2; 1 |] ~edges:[ (0, 1, 1) ]
  in
  check_int "reversed pattern" 0 (Khom.count reversed g)

let test_khom_labels_enforced () =
  let pattern =
    Kgraph.create ~n:2 ~vertex_labels:[| 1; 1 |] ~edges:[ (0, 1, 0) ]
  in
  (* knows edges: (0,1) (1,0) (1,2) -> 3 homs *)
  check_int "knows edges" 3 (Khom.count pattern (social ()));
  (* wrong vertex label: no homs *)
  let wrong =
    Kgraph.create ~n:2 ~vertex_labels:[| 2; 1 |] ~edges:[ (0, 1, 0) ]
  in
  check_int "wrong label" 0 (Khom.count wrong (social ()))

let test_khom_matches_plain_on_encoding () =
  let rng = Prng.create 77 in
  for _ = 1 to 10 do
    let h = G.Gen.gnp rng 4 0.5 in
    let g = G.Gen.gnp rng 5 0.5 in
    let kh = Kgraph.of_graph h ~vertex_label:0 ~edge_label:0 in
    let kg = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
    check_int "khom = plain hom under encoding" (Wlcq_hom.Brute.count h g)
      (Khom.count kh kg)
  done

let test_khom_pins () =
  let pattern =
    Kgraph.create ~n:2 ~vertex_labels:[| 1; 2 |] ~edges:[ (0, 1, 1) ]
  in
  (* pin the person to vertex 1: only worksAt(1,3) matches *)
  check_int "pinned" 1 (Khom.count ~pins:[ (0, 1) ] pattern (social ()))

(* ------------------------------------------------------------------ *)
(* Kwl                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kwl_matches_plain_on_encoding () =
  let enc g = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
  let pairs =
    [ (G.Builders.two_triangles (), G.Builders.cycle 6, true);
      (G.Builders.path 4, G.Builders.star 3, false);
      (G.Builders.cycle 5, G.Builders.cycle 5, true) ]
  in
  List.iter
    (fun (g1, g2, expected) ->
       check_bool "kwl k=1 matches plain" expected
         (Kwl.equivalent 1 (enc g1) (enc g2));
       check_bool "consistency with plain refinement" true
         (Kwl.equivalent 1 (enc g1) (enc g2)
          = Wlcq_wl.Equivalence.equivalent 1 g1 g2))
    pairs;
  (* 2-WL separates the classic pair, also under encoding *)
  check_bool "kwl k=2 separates 2K3/C6" false
    (Kwl.equivalent 2
       (enc (G.Builders.two_triangles ()))
       (enc (G.Builders.cycle 6)))

let test_kwl_direction_matters () =
  (* directed 3-cycle vs path-shaped orientation of the triangle:
     same underlying graph, different orientations *)
  let cyc =
    Kgraph.create ~n:3 ~vertex_labels:[| 0; 0; 0 |]
      ~edges:[ (0, 1, 0); (1, 2, 0); (2, 0, 0) ]
  in
  let acyclic =
    Kgraph.create ~n:3 ~vertex_labels:[| 0; 0; 0 |]
      ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ]
  in
  check_bool "underlying graphs equal" true
    (G.Graph.equal (Kgraph.underlying cyc) (Kgraph.underlying acyclic));
  check_bool "refinement separates orientations" false
    (Kwl.equivalent 1 cyc acyclic)

let test_kwl_labels_matter () =
  let a =
    Kgraph.create ~n:2 ~vertex_labels:[| 0; 0 |]
      ~edges:[ (0, 1, 0); (1, 0, 0) ]
  in
  let b =
    Kgraph.create ~n:2 ~vertex_labels:[| 0; 0 |]
      ~edges:[ (0, 1, 1); (1, 0, 1) ]
  in
  check_bool "edge labels separate" false (Kwl.equivalent 1 a b);
  let c =
    Kgraph.create ~n:2 ~vertex_labels:[| 0; 1 |]
      ~edges:[ (0, 1, 0); (1, 0, 0) ]
  in
  check_bool "vertex labels separate" false (Kwl.equivalent 1 a c)

(* ------------------------------------------------------------------ *)
(* Kcq                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kcq_answers () =
  (* colleagues: exists a company both work at *)
  let p =
    Kparser.parse_exn
      ~relations:[| "knows"; "worksAt" |]
      ~labels:[| "_"; "Person"; "Company" |]
      "(x1, x2) := exists c . worksAt(x1, c) & worksAt(x2, c) & Person(x1) & \
       Person(x2) & Company(c)"
  in
  (* in the social graph: persons 0 and 1 share company 3; person 2 is
     alone at company 4.  ordered pairs with a common company:
     (0,0),(0,1),(1,0),(1,1),(2,2) = 5 *)
  check_int "colleague pairs" 5 (Kcq.count_answers p.Kparser.query (social ()))

let test_kcq_matches_plain_on_encoding () =
  let star2 = Core.Star.query 2 in
  let kq = Kcq.of_cq star2 in
  let enc g = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
  List.iter
    (fun g ->
       check_int "kg answers = plain answers"
         (Core.Cq.count_answers star2 g)
         (Kcq.count_answers kq (enc g)))
    [ G.Builders.cycle 5; G.Builders.clique 4; G.Builders.petersen () ]

let test_kcq_widths_on_encoding () =
  List.iter
    (fun k ->
       let q = Core.Star.query k in
       let kq = Kcq.of_cq q in
       check_int "kg ew = plain ew" k (Kcq.extension_width kq);
       check_int "kg sew = plain sew" k (Kcq.semantic_extension_width kq);
       check_int "kg wl dimension" k (Kcq.wl_dimension kq))
    [ 1; 2; 3 ]

let test_kcq_direction_blocks_folding () =
  (* undirected pendant tail folds; the directed version cannot fold
     because the fold would need a reversed edge *)
  let undirected =
    (Core.Parser.parse_exn "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)")
      .Core.Parser.query
  in
  check_bool "undirected tail not minimal" false
    (Core.Minimize.is_counting_minimal undirected);
  let directed =
    Kparser.parse_exn "(x) := exists y1 y2 . r(x, y1) & r(y1, y2)"
  in
  check_bool "directed tail IS minimal" true
    (Kcq.is_counting_minimal directed.Kparser.query);
  (* but the kg encoding of the undirected query still folds *)
  check_bool "encoded undirected tail not minimal" false
    (Kcq.is_counting_minimal (Kcq.of_cq undirected))

let test_kcq_core_preserves_answers () =
  let q = Kcq.of_cq
      ((Core.Parser.parse_exn "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)")
         .Core.Parser.query)
  in
  let core = Kcq.counting_core q in
  check_bool "core smaller" true
    (Kgraph.num_vertices core.Kcq.graph < Kgraph.num_vertices q.Kcq.graph);
  let rng = Prng.create 7 in
  for _ = 1 to 5 do
    let g = Kgraph.of_graph (G.Gen.gnp rng 5 0.4) ~vertex_label:0 ~edge_label:0 in
    check_int "core counting-equivalent" (Kcq.count_answers q g)
      (Kcq.count_answers core g)
  done

let test_kcq_typed_star_dimension () =
  (* a 2-star whose two edges carry different relations still has
     sew = 2: the extension edge only needs a shared component *)
  let p = Kparser.parse_exn "(x1, x2) := exists y . knows(x1, y) & likes(x2, y)" in
  check_int "typed star ew" 2 (Kcq.extension_width p.Kparser.query);
  check_bool "typed star minimal" true
    (Kcq.is_counting_minimal p.Kparser.query);
  check_int "typed star dimension" 2 (Kcq.wl_dimension p.Kparser.query)

let test_kcq_core_tripped_budget () =
  let budget = Budget.create () in
  Budget.trip budget Budget.Deadline;
  let q = Kparser.parse_exn "(x) := exists y1 y2 . r(x, y1) & r(y1, y2)" in
  check_bool "counting_core raises" true
    (match Kcq.counting_core ~budget q.Kparser.query with
     | _ -> false
     | exception Budget.Exhausted Budget.Deadline -> true)

(* ------------------------------------------------------------------ *)
(* Kparser                                                             *)
(* ------------------------------------------------------------------ *)

let test_kparser_roundtrip () =
  let p =
    Kparser.parse_exn
      "(x, y) := exists z . knows(x, z) & worksAt(z, y) & Person(x)"
  in
  check_int "variables" 3 (Kgraph.num_vertices p.Kparser.query.Kcq.graph);
  check_int "free" 2 (Kcq.num_free p.Kparser.query);
  check_bool "vertex label applied" true
    (Kgraph.vertex_label p.Kparser.query.Kcq.graph 0 = 1);
  let printed = Kparser.to_formula p in
  let p2 = Kparser.parse_exn printed in
  check_int "reparse same edges"
    (Kgraph.num_edges p.Kparser.query.Kcq.graph)
    (Kgraph.num_edges p2.Kparser.query.Kcq.graph)

let test_kparser_errors () =
  let expect_error s =
    match Kparser.parse s with
    | Ok _ -> Alcotest.fail ("expected parse error for: " ^ s)
    | Error _ -> ()
  in
  expect_error "(x) := r(x, x)";
  expect_error "(x) := r(x, z)";
  expect_error "(x) := Person(x) & Company(x)";
  expect_error "(x, x) := r(x, y)"

let test_kspec () =
  match Kspec.parse "3; labels 1 1 2; edges 0-0>1 1-1>2" with
  | Error e -> Alcotest.fail e
  | Ok g ->
    check_int "vertices" 3 (Kgraph.num_vertices g);
    check_int "edges" 2 (Kgraph.num_edges g);
    check_bool "labelled edge" true (Kgraph.has_edge g 1 2 1);
    check_int "vertex label" 2 (Kgraph.vertex_label g 2);
    (* labels optional *)
    (match Kspec.parse "2; edges 0-0>1" with
     | Ok g -> check_int "default labels" 0 (Kgraph.vertex_label g 0)
     | Error e -> Alcotest.fail e);
    (* malformed specs *)
    List.iter
      (fun s ->
         check_bool ("rejects " ^ s) true (Result.is_error (Kspec.parse s)))
      [ ""; "x"; "2; edges 0>1"; "2; labels 0; edges"; "2; edges 0-0>2";
        "2; edges 1-0>1" ]

(* A random labelled digraph: vertex labels in {0, 1}, every ordered
   pair of distinct vertices carrying each edge label in {0, 1, 2} with
   probability 0.3 (so parallel edges with distinct labels occur). *)
let random_kgraph rng n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      for l = 0 to 2 do
        if u <> v && Prng.float rng < 0.3 then edges := (u, v, l) :: !edges
      done
    done
  done;
  Kgraph.create ~n
    ~vertex_labels:(Array.init n (fun _ -> Prng.int rng 2))
    ~edges:!edges

(* Equal partitions of the same index set: a colour bijection maps one
   colouring onto the other. *)
let same_partition a b =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
          match (Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y) with
          | None, None ->
            Hashtbl.replace fwd x y;
            Hashtbl.replace bwd y x;
            true
          | Some y', Some x' -> y' = y && x' = x
          | Some _, None | None, Some _ -> false)
       a b

(* ---- counting cores against the enumeration (Core_ref) ---- *)

(* The differential's random queries: G(n, p) with n = 1..7 and a free
   set that is empty, full or random, as plain queries (for the
   [of_cq] encoding) and as directed knowledge graphs with two
   relations and vertex labels 0..2 (label 0 is the wildcard). *)
let arb_query =
  QCheck.(quad (int_range 1 7) (int_range 1 9) (int_range 0 3)
            (int_bound 1_000_000))

let random_free rng n mode =
  let vertices = List.init n Fun.id in
  match mode with
  | 0 -> []
  | 1 -> vertices
  | _ -> List.filter (fun _ -> Prng.bool rng) vertices

let random_plain_query (n, p10, mode, seed) =
  let rng = Prng.create seed in
  let h = G.Gen.gnp rng n (float_of_int p10 /. 10.) in
  Core.Cq.make h (random_free rng n mode)

let random_kg_query (n, p10, mode, seed) =
  let rng = Prng.create seed in
  let p = float_of_int p10 /. 20. in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      for l = 0 to 1 do
        if u <> v && Prng.float rng < p then edges := (u, v, l) :: !edges
      done
    done
  done;
  let vertex_labels =
    Array.init n (fun _ -> if Prng.int rng 3 = 0 then 1 + Prng.int rng 2 else 0)
  in
  Kcq.make (Kgraph.create ~n ~vertex_labels ~edges:!edges)
    (random_free rng n mode)

(* [a] and [b] are isomorphic by a map sending the i-th free variable
   of [a] to the i-th of [b]: a bijective homomorphism that keeps every
   vertex label, between graphs with equally many labelled edges *)
let kg_isomorphic (a : Kcq.t) (b : Kcq.t) =
  let ga = a.Kcq.graph and gb = b.Kcq.graph in
  let n = Kgraph.num_vertices ga in
  let isomorphism f =
    List.length (List.sort_uniq Int.compare (Array.to_list f)) = n
    && List.for_all
         (fun v -> Kgraph.vertex_label ga v = Kgraph.vertex_label gb f.(v))
         (List.init n Fun.id)
  in
  n = Kgraph.num_vertices gb
  && Kgraph.num_edges ga = Kgraph.num_edges gb
  && Kcq.num_free a = Kcq.num_free b
  &&
  let pins =
    List.combine
      (Array.to_list (Kcq.free_vars a))
      (Array.to_list (Kcq.free_vars b))
  in
  try
    Khom.iter ~pins ga gb (fun f -> if isomorphism f then raise Exit);
    false
  with Exit -> true

(* the plain query behind an [of_cq]-encoded one *)
let to_cq (q : Kcq.t) =
  Core.Cq.make (Kgraph.underlying q.Kcq.graph) (Bitset.to_list q.Kcq.free)

(* the pinned retraction over [Khom.iter], checked as a witness *)
let check_retraction (q : Kcq.t) ~minimal =
  let h = q.Kcq.graph in
  match
    Core.Minimize.retraction ~free:q.Kcq.free (fun ~pins ~candidates ->
        Khom.iter ~pins ~candidates h h)
  with
  | None -> minimal
  | Some endo ->
    (not minimal)
    && Khom.is_homomorphism h h endo
    && Bitset.for_all (fun x -> endo.(x) = x) q.Kcq.free
    && List.length (List.sort_uniq Int.compare (Array.to_list endo))
       < Kgraph.num_vertices h

let core_qcheck =
  [
    QCheck.Test.make ~name:"encoded counting minimality matches Minimize"
      ~count:300 arb_query
      (fun params ->
         let q = random_plain_query params in
         let kq = Kcq.of_cq q in
         let minimal = Core.Minimize.is_counting_minimal q in
         Bool.equal (Kcq.is_counting_minimal kq) minimal
         && check_retraction kq ~minimal);
    QCheck.Test.make ~name:"encoded counting core is isomorphic to Minimize's"
      ~count:300 arb_query
      (fun params ->
         let q = random_plain_query params in
         Core.Cq.isomorphic
           (to_cq (Kcq.counting_core (Kcq.of_cq q)))
           (Core.Minimize.counting_core q));
    QCheck.Test.make ~name:"kg counting minimality matches the enumeration"
      ~count:300 arb_query
      (fun params ->
         let q = random_kg_query params in
         let minimal = Core_ref.kg_is_counting_minimal q in
         Bool.equal (Kcq.is_counting_minimal q) minimal
         && check_retraction q ~minimal);
    QCheck.Test.make ~name:"kg counting core is isomorphic to the enumeration's"
      ~count:300 arb_query
      (fun params ->
         let q = random_kg_query params in
         kg_isomorphic (Kcq.counting_core q) (Core_ref.kg_counting_core q));
  ]

let kg_qcheck =
  [
    QCheck.Test.make
      ~name:"kg answer counts match plain counts under encoding" ~count:30
      QCheck.(quad (int_range 1 4) (int_range 0 2) (int_range 1 5)
                (int_bound 100000))
      (fun (nh, extra, ng, seed) ->
         let rng = Prng.create seed in
         let h = G.Gen.gnp rng (nh + extra) 0.5 in
         let q = Core.Cq.make h (List.init nh (fun i -> i)) in
         let g = G.Gen.gnp rng ng 0.5 in
         Kcq.count_answers (Kcq.of_cq q)
           (Kgraph.of_graph g ~vertex_label:0 ~edge_label:0)
         = Core.Cq.count_answers q g);
    QCheck.Test.make
      ~name:"kg 1-WL equivalence matches plain under encoding" ~count:30
      QCheck.(triple (int_range 2 6) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = G.Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = G.Gen.gnp (Prng.create s2) n 0.5 in
         let enc g = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
         Kwl.equivalent 1 (enc g1) (enc g2)
         = Wlcq_wl.Equivalence.equivalent 1 g1 g2);
    QCheck.Test.make
      ~name:"kg 2-WL equivalence matches plain under encoding" ~count:15
      QCheck.(triple (int_range 2 5) (int_bound 100000) (int_bound 100000))
      (fun (n, s1, s2) ->
         let g1 = G.Gen.gnp (Prng.create s1) n 0.5 in
         let g2 = G.Gen.gnp (Prng.create s2) n 0.5 in
         let enc g = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
         Kwl.equivalent 2 (enc g1) (enc g2)
         = Wlcq_wl.Equivalence.equivalent 2 g1 g2);
    QCheck.Test.make
      ~name:"kg k-WL on the flat engine matches the list-based oracle"
      ~count:40
      QCheck.(quad (int_range 2 3) (int_range 1 5) (int_range 1 5)
                (int_bound 100000))
      (fun (k, n1, n2, seed) ->
         let rng = Prng.create seed in
         let g1 = random_kgraph rng n1 and g2 = random_kgraph rng n2 in
         let f1, f2 = Kwl.run_pair k g1 g2 in
         let o1, o2 = Kg_kwl_ref.run_pair k g1 g2 in
         let joint (r1 : Kwl.result) (r2 : Kwl.result) =
           Array.append r1.colours r2.colours
         in
         same_partition (joint f1 f2) (joint o1 o2)
         && f1.rounds = o1.rounds
         && f1.num_colours = o1.num_colours);
  ]

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "wlcq_kg"
    [
      ( "kgraph",
        [
          Alcotest.test_case "basics" `Quick test_kgraph_basics;
          Alcotest.test_case "validation" `Quick test_kgraph_validation;
          Alcotest.test_case "parallel edges" `Quick test_kgraph_parallel_edges;
          Alcotest.test_case "encoding" `Quick test_kgraph_encoding;
        ] );
      ( "khom",
        [
          Alcotest.test_case "direction sensitive" `Quick
            test_khom_direction_sensitive;
          Alcotest.test_case "labels enforced" `Quick test_khom_labels_enforced;
          Alcotest.test_case "matches plain" `Quick
            test_khom_matches_plain_on_encoding;
          Alcotest.test_case "pins" `Quick test_khom_pins;
        ] );
      ( "kwl",
        [
          Alcotest.test_case "matches plain" `Quick
            test_kwl_matches_plain_on_encoding;
          Alcotest.test_case "direction matters" `Quick
            test_kwl_direction_matters;
          Alcotest.test_case "labels matter" `Quick test_kwl_labels_matter;
        ] );
      ( "kcq",
        [
          Alcotest.test_case "answers" `Quick test_kcq_answers;
          Alcotest.test_case "matches plain" `Quick
            test_kcq_matches_plain_on_encoding;
          Alcotest.test_case "widths on encoding" `Quick
            test_kcq_widths_on_encoding;
          Alcotest.test_case "direction blocks folding" `Quick
            test_kcq_direction_blocks_folding;
          Alcotest.test_case "core preserves answers" `Quick
            test_kcq_core_preserves_answers;
          Alcotest.test_case "typed star dimension" `Quick
            test_kcq_typed_star_dimension;
          Alcotest.test_case "tripped budget" `Quick
            test_kcq_core_tripped_budget;
        ] );
      ( "kparser",
        [
          Alcotest.test_case "roundtrip" `Quick test_kparser_roundtrip;
          Alcotest.test_case "errors" `Quick test_kparser_errors;
        ] );
      ( "kspec", [ Alcotest.test_case "parse" `Quick test_kspec ] );
      qsuite "properties" (kg_qcheck @ core_qcheck);
    ]
