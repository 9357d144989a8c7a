(* Star queries: treewidth 1, WL-dimension k.

   The k-star (S_k, X_k) asks for k-tuples of vertices with a common
   neighbour.  It is acyclic, yet its extension graph Γ(S_k, X_k) is
   the (k+1)-clique, so sew(S_k, X_k) = k (Section 1.1) — the paper's
   canonical example of how existential quantification inflates the
   WL-dimension (and hence the order of GNNs able to count answers,
   Corollaries 61 and 67).

   Run with:  dune exec examples/star_queries.exe *)

open Wlcq_core
module G = Wlcq_graph

let () =
  Printf.printf
    "k-star queries: phi(x1..xk) = exists y . E(x1,y) & ... & E(xk,y)\n\n";
  Printf.printf "%-4s %-10s %-8s %-14s %-14s %-10s\n" "k" "tw(S_k)"
    "sew" "Gamma=K_{k+1}" "minimal" "WL-dim";
  for k = 1 to 5 do
    let q = Star.query k in
    Printf.printf "%-4d %-10d %-8d %-14b %-14b %-10d\n" k
      (Wlcq_treewidth.Exact.treewidth q.Cq.graph)
      (Extension.semantic_extension_width q)
      (Star.gamma_is_clique k)
      (Minimize.is_counting_minimal q)
      (Wl_dimension.dimension q)
  done;

  (* The semantics: answers of S_k in G are the k-tuples with a common
     neighbour.  Cross-check the generic enumeration route against the
     direct definition. *)
  Printf.printf "\nanswers in the Petersen graph (girth 5: common\n";
  Printf.printf "neighbours are unique for adjacent-free pairs):\n";
  let g = G.Builders.petersen () in
  for k = 1 to 3 do
    Printf.printf "  |Ans(S_%d, Petersen)| = %d by enumeration (direct: %d)\n" k
      (Cq.count_answers (Star.query k) g)
      (Star.count_common_neighbour_tuples g k);
  done;

  (* F_ℓ(S_k) is the complete bipartite graph K_{k,ℓ}; its treewidth
     min(k, ℓ) climbs to the extension width k as ℓ grows
     (Corollary 18). *)
  Printf.printf "\ntw(F_ell(S_3)) for ell = 1..5 (Corollary 18; ew = 3):\n ";
  let q3 = Star.query 3 in
  for ell = 1 to 5 do
    Printf.printf " ell=%d:%d" ell
      (Wlcq_treewidth.Exact.treewidth (Extension.f_ell q3 ell).Extension.graph)
  done;
  Printf.printf "\n"
