(* Answer counters that enumerate the |V(G)|^|X| candidate assignments:
   injective answers, unions, negations over free variables, and the
   Corollary 68 dominating-set reduction over enumerated injective star
   answers.  The independent routes the differential tests and the
   bench check the shipped Quantum, Ucq and Domset counts against — do
   not optimise. *)

open Wlcq_graph
open Wlcq_core
module Bigint = Wlcq_util.Bigint

(* [count_injective_answers q g] is Inj(q, g) of Corollary 68: the
   answers whose assignment of the free variables is injective (the
   extension to the quantified ones is unconstrained). *)
let count_injective_answers q g =
  let n = ref 0 in
  Cq.iter_answers q g (fun a ->
      let distinct = List.sort_uniq Int.compare (Array.to_list a) in
      if List.length distinct = Array.length a then incr n);
  !n

(* [count_union_answers qs g]: the assignments that answer at least one
   of [qs], whose free variables are identified positionally. *)
let count_union_answers qs g =
  match qs with
  | [] -> invalid_arg "Enum_ref.count_union_answers: empty union"
  | first :: _ ->
    let count = ref 0 in
    Wlcq_util.Combinat.iter_tuples (Graph.num_vertices g) (Cq.num_free first)
      (fun a -> if List.exists (fun q -> Cq.is_answer q g a) qs then incr count);
    !count

(* [count_answers_with_negations q pairs g]: the answers of [q] that
   also satisfy ¬E(x_a, x_b) for each pair of free-variable positions
   in [pairs]. *)
let count_answers_with_negations q pairs g =
  let count = ref 0 in
  Cq.iter_answers q g (fun a ->
      if List.for_all (fun (i, j) -> not (Graph.adjacent g a.(i) a.(j))) pairs
      then incr count);
  !count

(* |Δ_k(G)| = C(n,k) − Inj((S_k,X_k), Ḡ)/k!  (proof of Corollary 68),
   with the injective star answers enumerated. *)
let count_domsets_via_stars k g =
  let inj =
    Bigint.of_int (count_injective_answers (Star.query k) (Ops.complement g))
  in
  let per_subset, rem = Bigint.divmod inj (Bigint.factorial k) in
  if not (Bigint.is_zero rem) then
    failwith "Enum_ref.count_domsets_via_stars: count not divisible by k!";
  Bigint.sub (Bigint.binomial (Graph.num_vertices g) k) per_subset
