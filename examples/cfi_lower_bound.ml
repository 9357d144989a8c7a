(* The Section-4 lower bound, end to end.

   For the 2-star query (sew = 2) this program:
   1. computes the counting core and the saturating odd ℓ,
   2. builds F = F_ℓ(core) with tw(F) = 2,
   3. builds the twisted CFI pair χ(F, ∅) and χ(F, {x1}),
   4. verifies they are 1-WL-equivalent (Lemma 35) yet carry
      different colour-prescribed answer counts (Lemma 57),
   5. extracts a pair of plain graphs with different total answer
      counts via colour-block cloning (Lemma 40),
   so 1-WL — and hence any fully-refined order-1 GNN — cannot count
   the answers of the 2-star query.

   Run with:  dune exec examples/cfi_lower_bound.exe *)

open Wlcq_core
module G = Wlcq_graph
module Cfi = Wlcq_cfi.Cfi

let () =
  let q =
    (Parser.parse_exn "(x1, x2) := exists y . E(x1, y) & E(x2, y)").Parser.query
  in
  let k = Wl_dimension.dimension q in
  Printf.printf "query has WL-dimension %d; building a witness that %d-WL \
                 is not enough...\n\n" k (k - 1);

  let w = Wl_dimension.lower_bound_witness q in
  Printf.printf "F = F_%d(core): %d vertices, treewidth %d\n"
    w.Wl_dimension.f.Extension.ell
    (G.Graph.num_vertices w.Wl_dimension.f.Extension.graph)
    (Wlcq_treewidth.Exact.treewidth w.Wl_dimension.f.Extension.graph);
  Printf.printf "chi(F, {}):   %d vertices\n"
    (Cfi.num_vertices w.Wl_dimension.even);
  Printf.printf "chi(F, {x1}): %d vertices\n\n"
    (Cfi.num_vertices w.Wl_dimension.odd);

  (* Lemma 26: the pair is non-isomorphic. *)
  Printf.printf "non-isomorphic (Lemma 26):        %b\n"
    (not
       (G.Iso.isomorphic w.Wl_dimension.even.Cfi.graph
          w.Wl_dimension.odd.Cfi.graph));

  (* Lemma 35: it is (k-1)-WL-equivalent. *)
  Printf.printf "(k-1)-WL-equivalent (Lemma 35):   %b\n"
    (Wl_dimension.witness_pair_equivalent w (k - 1));

  (* Lemma 57: the colour-prescribed answer counts differ. *)
  let even, odd = Wl_dimension.ans_id_counts w in
  Printf.printf "Ans^id counts (Lemma 57):         %d > %d : %b\n" even odd
    (even > odd);

  (* Lemma 55: the extendable-assignment sets agree with cpAns. *)
  let se = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
      w.Wl_dimension.even in
  let so = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
      w.Wl_dimension.odd in
  Printf.printf "extendable = cpAns (Lemma 55):    %b / %b\n"
    (Extendable.count se = Extendable.count_cp_answers se)
    (Extendable.count so = Extendable.count_cp_answers so);

  (* Lemma 40: cloning turns the coloured gap into a plain one. *)
  match Wl_dimension.separating_pair q with
  | None -> Printf.printf "no separating pair found (unexpected)\n"
  | Some (g1, g2) ->
    let count g = Wlcq_util.Bigint.to_string (Fast_count.count_answers q g) in
    let c1 = count g1 and c2 = count g2 in
    Printf.printf
      "\nseparating pair (Lemma 40): %d vs %d vertices,\n\
       |Ans| = %s vs %s, and the graphs are %d-WL-equivalent: %b\n"
      (G.Graph.num_vertices g1) (G.Graph.num_vertices g2) c1 c2 (k - 1)
      (Wlcq_wl.Equivalence.equivalent (k - 1) g1 g2)
