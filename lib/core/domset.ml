open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget
module Bigint = Wlcq_util.Bigint
module Rat = Wlcq_util.Rat

let is_dominating g d =
  let n = Graph.num_vertices g in
  let covered = Bitset.create n in
  List.iter
    (fun v ->
       Bitset.set covered v;
       Graph.iter_neighbours g v (fun w -> Bitset.set covered w))
    d;
  Bitset.cardinal covered = n

let count_direct ?(budget = Budget.unlimited) k g =
  let n = Graph.num_vertices g in
  let count = ref 0 in
  Wlcq_util.Combinat.iter_subsets_of_size k n (fun subset ->
      (* one tick per candidate subset: each domination test is O(n·k) *)
      Budget.tick_check budget;
      if is_dominating g (Array.to_list subset) then incr count);
  Bigint.of_int !count

(* |Δ_k(G)| = C(n,k) − Inj((S_k,X_k), Ḡ)/k!  (proof of Corollary 68) *)
let count_via_quantum ?budget k g =
  let n = Graph.num_vertices g in
  let inj =
    match
      Rat.to_bigint_opt
        (Quantum.evaluate ?budget (Quantum.injective_star k)
           (Ops.complement g))
    with
    | Some b -> b
    | None -> failwith "Domset.count_via_quantum: non-integer quantum evaluation"
  in
  let per_subset, rem = Bigint.divmod inj (Bigint.factorial k) in
  if not (Bigint.is_zero rem) then
    failwith "Domset.count_via_quantum: injective answer count not divisible by k!";
  Bigint.sub (Bigint.binomial n k) per_subset
