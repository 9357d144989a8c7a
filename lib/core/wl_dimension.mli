(** The WL-dimension of conjunctive queries — Theorem 1 and its
    certified witnesses.

    Theorem 1: for a connected query [(H, X)] with [X ≠ ∅], the
    WL-dimension of [G ↦ |Ans((H,X),G)|] equals the semantic extension
    width [sew(H, X)].  {!dimension} evaluates the right-hand side;
    the rest of this module produces and checks the {e evidence} the
    proof is made of:

    - {!answers_via_interpolation} implements the upper bound
      (Lemma 22 / Observation 23): answer counts are a function of the
      homomorphism counts [|Hom(F_ℓ, ·)|] from graphs of treewidth at
      most [ew], recovered by solving an exact Vandermonde system;
    - {!lower_bound_witness} implements the lower bound (Section 4):
      it builds [F = F_ℓ(core)] with [tw(F) = ew] and the twisted CFI
      pair [χ(F, ∅) / χ(F, {x₁})], on which the colour-prescribed
      answer counts provably differ (Lemma 57) while the graphs are
      [(ew−1)]-WL-equivalent (Lemma 35);
    - {!separating_pair} upgrades the witness to a pair of plain
      graphs with different total answer counts (via the colour-block
      cloning of Lemma 40). *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [dimension q] is the WL-dimension of [q].  For connected queries
    with [X ≠ ∅] this is [sew q] (Theorem 1).  The extensions
    discussed in Section 1.3 are also implemented: for [X = ∅] it is
    the treewidth of the homomorphic core (item B), and for
    disconnected queries the maximum over connected components
    (item A). *)
val dimension : Cq.t -> int

(** [dimension_budgeted ~budget q]: [`Exact d] when every treewidth
    search and endomorphism enumeration finished in budget; otherwise
    [`Exhausted ((lo, hi), r)] with a {e certified} interval
    containing the dimension — [lo = 0] and [hi] from
    {!dimension_upper_bound}.  Never [`Degraded]: an uncertain
    dimension is an interval, not a flagged point value.  Bumps
    [robust.fallback.dim_interval]. *)
val dimension_budgeted :
  budget:Budget.t -> Cq.t ->
  (int, (int * int) * Budget.reason) Outcome.t

(** [dimension_upper_bound q] is a certified upper bound on
    [dimension q]: the recursion of {!dimension} with the polynomial
    {!Wlcq_treewidth.Heuristics} treewidth bracket in place of exact
    treewidth and no core minimisation (both can only lower the
    value). *)
val dimension_upper_bound : Cq.t -> int

type witness = {
  core : Cq.t;  (** the counting-minimal representative *)
  f : Extension.f_ell;  (** [F_ℓ(core)] with [tw = ew(core)], [ℓ] odd *)
  x1 : int;  (** the twisted vertex: a free variable adjacent to [Y] *)
  even : Wlcq_cfi.Cfi.t;  (** [χ(F, ∅)] *)
  odd : Wlcq_cfi.Cfi.t;  (** [χ(F, {x₁})] *)
  colouring_even : int array;  (** [c = γ ∘ π₁] on [χ(F, ∅)] *)
  colouring_odd : int array;  (** [c = γ ∘ π₁] on [χ(F, {x₁})] *)
}

(** [lower_bound_witness q] builds the Section-4 witness for a
    connected query whose counting core has at least one quantified
    variable and [X ≠ ∅].  [budget] is threaded through the core
    minimisation, the saturating-ℓ treewidth searches and both CFI
    builds.
    @raise Invalid_argument otherwise (full queries are covered by
    Neuen's theorem and need no [F_ℓ] construction).
    @raise Budget.Exhausted when [budget] trips. *)
val lower_bound_witness : ?budget:Budget.t -> Cq.t -> witness

(** [ans_id_counts w] is [(|Ans^id| on χ(F,∅), |Ans^id| on χ(F,{x₁}))]
    — Lemma 57 asserts the first is strictly larger. *)
val ans_id_counts : witness -> int * int

(** [cp_ans_counts w] is the same with colour-prescribed answers
    (equal to [ans_id_counts] for counting-minimal queries by
    Lemma 50). *)
val cp_ans_counts : witness -> int * int

(** [witness_pair_equivalent w k] checks [χ(F,∅) ≅_k χ(F,{x₁})] with
    the k-WL oracle (Lemma 35 guarantees this for
    [k = tw(F) − 1]). *)
val witness_pair_equivalent : witness -> int -> bool

(** [equivalent_cached k g1 g2] is {!Wlcq_wl.Equivalence.equivalent}
    behind a process-wide memo table keyed on [(k, pair)] (order
    insensitive).  The lower-bound pipeline re-asks the oracle about
    the same CFI pairs many times; the memo makes repeats free. *)
val equivalent_cached : int -> Graph.t -> Graph.t -> bool

(** [separating_pair ?max_z q] is a pair of graphs [(G, G')] with
    [G ≅_{sew−1} G'] and [|Ans(q,G)| ≠ |Ans(q,G')|], obtained from the
    witness by colour-block cloning with multiplicities up to [max_z]
    (Lemma 40); [None] if no multiplicity vector up to the bound
    separates (the theorem guarantees one exists at some bound). *)
val separating_pair : ?max_z:int -> Cq.t -> (Graph.t * Graph.t) option

(** [answers_via_interpolation q g] computes [|Ans(q, g)|] from the
    homomorphism counts [|Hom(F_ℓ(core), g)|], [ℓ = 1 .. n̂], by exact
    Vandermonde interpolation (Lemma 22 / Observation 23), where
    [n̂ = |V(g)|^{|Y(core)|}].  Only the sum of the system's solution
    is needed, so it is read off in closed form
    ({!Wlcq_util.Linalg.vandermonde_sum}).  [budget] is threaded into the core
    minimisation and the batch homomorphism counts.
    @raise Invalid_argument when [n̂] exceeds [max_system] (default
    64).
    @raise Budget.Exhausted when [budget] trips. *)
val answers_via_interpolation :
  ?budget:Budget.t -> ?max_system:int -> Cq.t -> Graph.t ->
  Wlcq_util.Bigint.t
