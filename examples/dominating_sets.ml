(* Counting dominating sets via star queries (Corollaries 6 and 68).

   |Δ_k(G)| = C(n,k) − Inj((S_k, X_k), complement(G)) / k!

   and the injective star answers expand into a quantum query with
   signed-Stirling coefficients, which pins the WL-dimension of
   dominating-set counting at exactly k.

   Run with:  dune exec examples/dominating_sets.exe *)

open Wlcq_core
module G = Wlcq_graph
module Bigint = Wlcq_util.Bigint
module Rat = Wlcq_util.Rat

let () =
  let graphs =
    [ ("C5", G.Builders.cycle 5);
      ("C6", G.Builders.cycle 6);
      ("Petersen", G.Builders.petersen ());
      ("K4", G.Builders.clique 4);
      ("grid3x3", G.Builders.grid 3 3) ]
  in
  Printf.printf "size-k dominating sets, counted two ways\n";
  Printf.printf "(direct enumeration | star reduction via the quantum expansion):\n\n";
  Printf.printf "%-10s" "graph";
  for k = 1 to 4 do Printf.printf "  %-16s" (Printf.sprintf "k=%d" k) done;
  Printf.printf "\n";
  List.iter
    (fun (name, g) ->
       Printf.printf "%-10s" name;
       for k = 1 to 4 do
         let a = Bigint.to_string (Domset.count_direct k g) in
         let b = Bigint.to_string (Domset.count_via_quantum k g) in
         if a = b then Printf.printf "  %-16s" a
         else Printf.printf "  %s|%s(!)" a b
       done;
       Printf.printf "\n")
    graphs;

  (* The Corollary 68 quantum query behind the reduction. *)
  Printf.printf "\nquantum expansion of Inj((S_3, X_3), .)  (Corollary 68):\n";
  let q = Quantum.injective_star 3 in
  List.iter
    (fun t ->
       Printf.printf "  %4s x (S_%d)\n"
         (Rat.to_string t.Quantum.coeff)
         (Cq.num_free t.Quantum.query))
    (Quantum.terms q);
  Printf.printf "\nWL-dimension of counting 3-dominating sets = hsew = %d\n"
    (Quantum.hsew q)
