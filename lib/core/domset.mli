(** Counting dominating sets (Corollary 6 / Corollary 68).

    A size-k dominating set of [G] is a k-subset [D ⊆ V(G)] such that
    every vertex is in [D] or adjacent to a member of [D].  The paper
    shows the graph parameter [G ↦ |Δ_k(G)|] has WL-dimension exactly
    [k], by expressing it through injective star answers on the
    complement:

    [|Δ_k(G)| = C(n, k) − Inj((S_k, X_k), Ḡ) / k!]

    Two routes are shipped: direct enumeration, and the reduction
    above with the injective star answers expanded into the quantum
    query of Corollary 68.  The tests and the bench check both against
    a third, the reduction over enumerated injective answers. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget

(** [count_direct k g] enumerates k-subsets and tests domination.
    [budget] is ticked once per candidate subset.
    @raise Budget.Exhausted when [budget] trips. *)
val count_direct : ?budget:Budget.t -> int -> Graph.t -> Wlcq_util.Bigint.t

(** [count_via_quantum k g] uses the complement/star reduction with
    the quantum-query expansion {!Quantum.injective_star}, each
    constituent counted under [budget] ({!Quantum.evaluate}).
    @raise Budget.Exhausted when [budget] trips. *)
val count_via_quantum :
  ?budget:Budget.t -> int -> Graph.t -> Wlcq_util.Bigint.t

(** [is_dominating g d] tests whether the vertex set [d] dominates
    [g]. *)
val is_dominating : Graph.t -> int list -> bool
