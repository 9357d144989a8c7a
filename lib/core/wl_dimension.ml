open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Rat = Wlcq_util.Rat
module Cfi = Wlcq_cfi.Cfi
module Cloning = Wlcq_cfi.Cloning
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Dispatch = Wlcq_dispatch.Dispatch

let m_cache_hits = Obs.counter "wl_dimension.cache_hits"
let m_cache_misses = Obs.counter "wl_dimension.cache_misses"
let m_interval = Obs.counter "robust.fallback.dim_interval"

(* ------------------------------------------------------------------ *)
(* Theorem 1 (with the Section 1.3 extensions for empty X and          *)
(* disconnected queries)                                               *)
(* ------------------------------------------------------------------ *)

let components_as_queries q =
  let h = q.Cq.graph in
  List.map
    (fun members ->
       let sub, back = Ops.induced h members in
       let free =
         List.filteri
           (fun i _ -> Bitset.mem q.Cq.free back.(i))
           (List.init (List.length members) (fun i -> i))
       in
       Cq.make sub free)
    (Traversal.component_members h)

let rec dimension_exact ~budget q =
  let h = q.Cq.graph in
  if Graph.num_vertices h = 0 then 0
  else if not (Cq.is_connected q) then
    (* (A): maximum over connected components *)
    List.fold_left
      (fun acc sq -> max acc (dimension_exact ~budget sq))
      0 (components_as_queries q)
  else if Cq.is_boolean q then
    (* (B): counting answers = deciding hom existence; the dimension is
       the treewidth of the homomorphic core.  A degraded treewidth
       bound is not the dimension, so it re-raises. *)
    match
      Wlcq_treewidth.Exact.treewidth_budgeted ~budget
        (Minimize.counting_core ~budget q).Cq.graph
    with
    | `Exact w -> w
    | `Degraded (_, r) -> raise (Budget.Exhausted r.Outcome.cause)
    | `Exhausted _ -> assert false
  else Extension.semantic_extension_width ~budget q

let dimension q = dimension_exact ~budget:Budget.unlimited q

(* Certified upper bound, mirroring the recursion of [dimension] with
   the polynomial {!Wlcq_treewidth.Heuristics} bracket in place of
   exact treewidth and no core minimisation (both only lower the
   value).  Always cheap, never budgeted. *)
(* lint: allow R7 degraded fallback that runs after the budget has
   tripped — polling here would raise Exhausted immediately *)
let rec dimension_upper_bound q =
  let h = q.Cq.graph in
  if Graph.num_vertices h = 0 then 0
  else if not (Cq.is_connected q) then
    List.fold_left
      (fun acc sq -> max acc (dimension_upper_bound sq))
      0 (components_as_queries q)
  else if Cq.is_boolean q then Wlcq_treewidth.Heuristics.upper_bound h
  else Extension.extension_width_upper_bound q

(* lint: allow R8 Invalid_argument is Cq.make validation on the
   component split — an internal invariant, not a budget outcome *)
let dimension_budgeted ~budget q =
  Obs.entry_point "wl_dimension.dimension" @@ fun () ->
  match dimension_exact ~budget q with
  | d -> `Exact d
  | exception Budget.Exhausted r ->
    Obs.incr m_interval;
    let ub = dimension_upper_bound q in
    Obs.journal ~severity:Obs.Warn
      ~attrs:
        [ ("reason", Budget.reason_to_string r);
          ("upper_bound", string_of_int ub) ]
      "wl_dimension.interval";
    `Exhausted ((0, ub), r)

(* ------------------------------------------------------------------ *)
(* Lower-bound witness (Section 4)                                     *)
(* ------------------------------------------------------------------ *)

type witness = {
  core : Cq.t;
  f : Extension.f_ell;
  x1 : int;
  even : Cfi.t;
  odd : Cfi.t;
  colouring_even : int array;
  colouring_odd : int array;
}

let lower_bound_witness ?budget q =
  let core = Minimize.counting_core ?budget q in
  if not (Cq.is_connected core) then
    invalid_arg "Wl_dimension.lower_bound_witness: query must be connected";
  if Cq.is_boolean core then
    invalid_arg "Wl_dimension.lower_bound_witness: query has no free variables";
  if Cq.is_full core then
    invalid_arg
      "Wl_dimension.lower_bound_witness: core is a full query (covered by \
       Neuen's theorem; no F_ell construction needed)";
  (* smallest odd ℓ with tw(F_ℓ) = ew(core); treewidth is monotone in ℓ
     and capped at ew (Lemma 16), so bumping to the next odd value is
     safe *)
  let ell0 = Extension.minimal_saturating_ell ?budget core in
  let ell = if ell0 mod 2 = 1 then ell0 else ell0 + 1 in
  let f = Extension.f_ell core ell in
  (* x₁: a free variable adjacent to a quantified one; its F-vertex is
     its position among the free variables (Extension.f_ell places the
     free variables first) *)
  let xs = Cq.free_vars core in
  let x1 =
    let h = core.Cq.graph in
    let adjacent_to_y p =
      List.exists
        (fun w -> not (Bitset.mem core.Cq.free w))
        (Graph.neighbours_list h xs.(p))
    in
    let rec find p =
      if p >= Array.length xs then
        invalid_arg
          "Wl_dimension.lower_bound_witness: no free variable adjacent to a \
           quantified one (impossible for connected non-full queries)"
      else if adjacent_to_y p then p
      else find (p + 1)
    in
    find 0
  in
  let even =
    Cfi.build ?budget f.Extension.graph
      (Bitset.create (Graph.num_vertices f.Extension.graph))
  in
  let odd =
    Cfi.build ?budget f.Extension.graph
      (Bitset.singleton (Graph.num_vertices f.Extension.graph) x1)
  in
  let colouring (chi : Cfi.t) =
    Array.map (fun v -> f.Extension.gamma.(v)) chi.Cfi.projection
  in
  {
    core;
    f;
    x1;
    even;
    odd;
    colouring_even = colouring even;
    colouring_odd = colouring odd;
  }

let identity_tau w = Cq.free_vars w.core

let ans_id_counts w =
  let tau = identity_tau w in
  ( Cq.count_answers_tau w.core w.even.Cfi.graph ~c:w.colouring_even ~tau,
    Cq.count_answers_tau w.core w.odd.Cfi.graph ~c:w.colouring_odd ~tau )

let cp_ans_counts w =
  ( Cq.count_cp_answers w.core w.even.Cfi.graph ~c:w.colouring_even,
    Cq.count_cp_answers w.core w.odd.Cfi.graph ~c:w.colouring_odd )

(* The k-WL oracle is called repeatedly on the same CFI pairs (per
   candidate k by the callers, and per query sharing a core by the
   bench tables), and a k-WL run is by far the costliest step of the
   pipeline — memoise verdicts per (k, pair) in the shared
   content-addressed tier.  The verdict is isomorphism-invariant, so
   keying on canonical digests lets relabelled copies of a pair share
   one entry; the two addresses are ordered so both argument orders do
   too. *)
let equivalent_store =
  Wlcq_cache.Cache.store ~name:"wl_dimension.equivalent"
    ~words:(fun (_ : bool) -> 1)
    ()

(* the key of a verdict on a pair of addresses, in either order *)
let verdict_key k a1 a2 =
  let a1, a2 = if String.compare a1 a2 <= 0 then (a1, a2) else (a2, a1) in
  string_of_int k ^ "|" ^ a1 ^ "|" ^ a2

(* An identical resubmission hits the pair's as-labelled key, and only
   a relabelled one pays for canonical labelling. *)
let equivalent_cached k g1 g2 =
  if not (Wlcq_cache.Cache.enabled ()) then
    Wlcq_wl.Equivalence.equivalent k g1 g2
  else begin
    let address g =
      fst
        (Wlcq_cache.Cache.address
           ~nodes:
             (Dispatch.address_nodes (Dispatch.Probe_decide k)
                ~n:(Graph.num_vertices g) ~m:(Graph.num_edges g))
           g)
    in
    let labelled = Wlcq_cache.Cache.structural_address in
    match
      Wlcq_cache.Cache.find_labelled equivalent_store
        ~labelled:(verdict_key k (labelled g1) (labelled g2))
        ~canonical:(lazy (verdict_key k (address g1) (address g2)))
    with
    | Some v, _ ->
      Obs.incr m_cache_hits;
      v
    | None, store ->
      Obs.incr m_cache_misses;
      let v = Wlcq_wl.Equivalence.equivalent k g1 g2 in
      store v;
      v
  end

let witness_pair_equivalent w k =
  equivalent_cached k w.even.Cfi.graph w.odd.Cfi.graph

let separating_pair ?(max_z = 3) q =
  let w = lower_bound_witness q in
  let k = Cq.num_free w.core in
  let clone_both spec =
    let build (chi : Cfi.t) =
      Cloning.clone ~g:chi.Cfi.graph ~f:w.f.Extension.graph
        ~c:chi.Cfi.projection spec
    in
    (build w.even, build w.odd)
  in
  let result = ref None in
  (try
     Wlcq_util.Combinat.iter_tuples max_z k (fun t ->
         let spec = Array.to_list (Array.mapi (fun p z -> (p, z + 1)) t) in
         let ge, go = clone_both spec in
         let ce = Fast_count.count_answers w.core ge.Cloning.graph in
         let co = Fast_count.count_answers w.core go.Cloning.graph in
         if not (Bigint.equal ce co) then begin
           result := Some (ge.Cloning.graph, go.Cloning.graph);
           raise Exit
         end)
   with Exit -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Upper bound: interpolation (Lemma 22 / Observation 23)              *)
(* ------------------------------------------------------------------ *)

let answers_via_interpolation ?budget ?(max_system = 64) q g =
  let core = Minimize.counting_core ?budget q in
  if Cq.is_full core then
    (* no quantified variables: answers are homomorphisms *)
    Wlcq_hom.Td_count.count ?budget core.Cq.graph g
  else begin
    let y_count = Array.length (Cq.quantified_vars core) in
    let n = Graph.num_vertices g in
    if n = 0 then Bigint.zero
    else begin
      (* n̂ = |Ω| = number of functions Y → V(G) *)
      let n_hat =
        let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
        pow 1 y_count
      in
      if n_hat > max_system then
        invalid_arg
          (Printf.sprintf
             "Wl_dimension.answers_via_interpolation: system size %d exceeds \
              the limit %d"
             n_hat max_system);
      (* |Hom(F_ℓ, G)| = Σ_{i=1}^{n̂} a_i · i^ℓ where a_i sums the
         answer classes whose extension set has size i, and
         |Ans| = Σ_i a_i (proof of Lemma 22).  The extension family
         F_1 ⊆ … ⊆ F_n̂ shares one decomposition and one candidate
         structure through the batch entry point. *)
      let patterns =
        List.init n_hat (fun i ->
            (Extension.f_ell core (i + 1)).Extension.graph)
      in
      let rhs = Array.of_list (Wlcq_hom.Td_count.count_many ?budget patterns g) in
      let nodes = Array.init n_hat (fun i -> Bigint.of_int (i + 1)) in
      match
        Rat.to_bigint_opt (Wlcq_util.Linalg.vandermonde_sum nodes rhs)
      with
      | Some v -> v
      | None ->
        failwith
          "Wl_dimension.answers_via_interpolation: non-integer total \
           (interpolation bug)"
    end
  end
