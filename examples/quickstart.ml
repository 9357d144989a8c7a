(* Quickstart: parse a conjunctive query, compute its width measures
   and WL-dimension, and count its answers in a data graph.

   Run with:  dune exec examples/quickstart.exe *)

open Wlcq_core
module G = Wlcq_graph

let () =
  (* The paper's running example, the 2-star:
     φ(x1, x2) = ∃y : E(x1, y) ∧ E(x2, y)
     — "x1 and x2 have a common neighbour". *)
  let parsed =
    Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)"
  in
  let q = parsed.Parser.query in
  Printf.printf "query: %s\n\n"
    (Parser.to_formula ~names:parsed.Parser.names q);

  (* Width measures (Definitions 10-12).  The query graph is a tree,
     but the extension graph Γ adds the edge {x1, x2} because the
     quantified component {y} touches both free variables — so the
     extension width exceeds the treewidth. *)
  Printf.printf "treewidth of H:          %d\n"
    (Wlcq_treewidth.Exact.treewidth q.Cq.graph);
  Printf.printf "extension width:         %d\n" (Extension.extension_width q);
  Printf.printf "semantic extension width:%d\n"
    (Extension.semantic_extension_width q);

  (* Theorem 1: the WL-dimension equals the semantic extension width,
     i.e. 1-WL (colour refinement) cannot determine the number of
     answers of this query, but 2-WL can. *)
  Printf.printf "WL-dimension (Theorem 1):%d\n\n" (Wl_dimension.dimension q);

  (* Count answers in a few data graphs, three ways: the Corollary 4
     DP (Fast_count, the counter the CLI and the daemon use), the
     |V(G)|^|X| enumeration route, and the Lemma 22 interpolation from
     homomorphism counts of the F_ℓ graphs. *)
  let graphs =
    [ ("C5", G.Builders.cycle 5);
      ("Petersen", G.Builders.petersen ());
      ("K4", G.Builders.clique 4) ]
  in
  List.iter
    (fun (name, g) ->
       let count = Fast_count.count_answers q g in
       let enumerated = Cq.count_answers q g in
       let interpolated = Wl_dimension.answers_via_interpolation q g in
       Printf.printf "|Ans(q, %-8s)| = %4s  (enumeration: %d, interpolated: %s)\n"
         name
         (Wlcq_util.Bigint.to_string count)
         enumerated
         (Wlcq_util.Bigint.to_string interpolated))
    graphs
