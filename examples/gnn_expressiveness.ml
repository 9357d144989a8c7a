(* GNN expressiveness and conjunctive queries (Section 1.2).

   A fully-refined order-k GNN computes exactly the k-WL partition of
   k-tuples (Proposition 3, Morris et al.).  Theorem 1 therefore pins
   down the GNN order needed to count the answers of a conjunctive
   query: sew(H, X) — no less, no more.

   This program demonstrates both directions for the 2-star query
   "x1 and x2 have a common neighbour" (sew = 2):
   - an order-2 GNN's partition determines the answer count, and the
     readout reproduces direct enumeration;
   - for order 1 there is a pair of graphs with IDENTICAL features on
     which the query counts differ, so no order-1 readout can work.

   Run with:  dune exec examples/gnn_expressiveness.exe *)

open Wlcq_gnn
module G = Wlcq_graph
module Core = Wlcq_core

let () =
  let q =
    (Core.Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)")
      .Core.Parser.query
  in
  let k = Gnn.sufficient_order q in
  Printf.printf "query: (x1, x2) := exists y . E(x1,y) & E(x2,y)\n";
  Printf.printf "sufficient (and necessary) GNN order: %d\n\n" k;

  Printf.printf "order-%d readout vs direct enumeration:\n" k;
  List.iter
    (fun (name, g) ->
       let n = Gnn.make ~order:k g in
       match Gnn.answer_count_readout q n with
       | None -> assert false
       | Some v ->
         Printf.printf "  %-12s readout = %-5s direct = %d   (%d feature \
                        classes, %d layers)\n"
           name
           (Wlcq_util.Bigint.to_string v)
           (Core.Cq.count_answers q g)
           n.Gnn.num_classes n.Gnn.layers)
    [ ("C5", G.Builders.cycle 5); ("Petersen", G.Builders.petersen ());
      ("K4", G.Builders.clique 4) ];

  Printf.printf "\norder %d is refused (no correct readout exists):\n" (k - 1);
  let low = Gnn.make ~order:(k - 1) (G.Builders.cycle 5) in
  Printf.printf "  answer_count_readout at order %d: %s\n" (k - 1)
    (match Gnn.answer_count_readout q low with
     | None -> "None"
     | Some _ -> "Some (unexpected!)");

  Printf.printf "\nand here is why — an inexpressibility witness:\n";
  match Gnn.inexpressibility_witness q with
  | None -> Printf.printf "  (no witness found)\n"
  | Some (g1, g2) ->
    Printf.printf "  two graphs with %d vertices each:\n"
      (G.Graph.num_vertices g1);
    Printf.printf "  identical order-%d GNN features: %b\n" (k - 1)
      (Gnn.indistinguishable ~order:(k - 1) g1 g2);
    Printf.printf "  |Ans| = %s vs %s  -> every order-%d readout must \
                   answer identically, and is therefore wrong on one of \
                   them\n"
      (Wlcq_util.Bigint.to_string (Core.Fast_count.count_answers q g1))
      (Wlcq_util.Bigint.to_string (Core.Fast_count.count_answers q g2))
      (k - 1);
    Printf.printf "  order-%d GNN features already differ: %b (Theorem 1 \
                   upper bound)\n"
      k
      (not (Gnn.indistinguishable ~order:k g1 g2))
