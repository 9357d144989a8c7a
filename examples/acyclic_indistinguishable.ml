(* Observation 62: connected acyclic conjunctive queries cannot
   distinguish 2K3 (two disjoint triangles) from C6 (the 6-cycle).

   These two graphs are the standard example of 1-WL-equivalent,
   non-isomorphic graphs.  Corollary 61 shows acyclic queries have
   UNBOUNDED WL-dimension (the k-star is acyclic with sew = k), yet
   Observation 62 shows the entire class of acyclic queries is too
   weak to reach even 2-WL resolution: every acyclic query returns the
   same count on both graphs, while the triangle query separates them
   immediately.

   Run with:  dune exec examples/acyclic_indistinguishable.exe *)

open Wlcq_core
module G = Wlcq_graph

let acyclic =
  [
    "(x) := exists y . E(x, y)";
    "(x1, x2) := E(x1, x2)";
    "(x1, x2) := exists y . E(x1, y) & E(y, x2)";
    "(x1, x2) := exists y . E(x1, y) & E(x2, y)";
    "(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)";
    "(x1) := exists y1 y2 . E(x1, y1) & E(y1, y2)";
    "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)";
    "(x1, x2, x3) := E(x1, x2) & E(x2, x3)";
    "(x1, x2, x3, x4) := exists y . E(x1,y) & E(x2,y) & E(x3,y) & E(x4,y)";
  ]

let triangle = "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)"

let count q g = Wlcq_util.Bigint.to_string (Fast_count.count_answers q g)

let () =
  let g1 = G.Builders.two_triangles () in
  let g2 = G.Builders.cycle 6 in
  Printf.printf "2K3 vs C6: 1-WL-equivalent: %b, isomorphic: %b\n\n"
    (Wlcq_wl.Refinement.equivalent g1 g2)
    (G.Iso.isomorphic g1 g2);
  Printf.printf "%-66s %6s %6s\n" "acyclic query" "2K3" "C6";
  List.iter
    (fun s ->
       let q = (Parser.parse_exn s).Parser.query in
       assert (G.Traversal.is_forest q.Cq.graph);
       Printf.printf "%-66s %6s %6s\n" s (count q g1) (count q g2))
    acyclic;
  Printf.printf "\ncontrol (cyclic query — the triangle):\n";
  let q = (Parser.parse_exn triangle).Parser.query in
  Printf.printf "%-66s %6s %6s   <- separates!\n" triangle (count q g1)
    (count q g2)
