(** Polynomial-time answer counting for bounded extension width — the
    algorithmic content of the positive side of Corollary 4.

    The classification of Chen–Durand–Mengel and Dell–Roth–Wellnitz
    (quoted in the proof of Corollary 4) makes [#CQ] tractable exactly
    when the treewidth of the query {e and} of its contract are
    bounded — equivalently, when the extension width is bounded.  The
    algorithm implemented here is the standard witness of tractability:

    + for each connected component [C_i] of [H[Y]] with attachment set
      [δ_i = N(C_i) ∩ X], tabulate the predicate
      [P_i(σ) = "σ : δ_i → V(G) extends to a homomorphism of the
      component"] — at most [|V(G)|^{|δ_i|}] entries, and
      [|δ_i| ≤ ew + 1] because [δ_i] is a clique of [Γ(H,X)];
    + count the assignments [a : X → V(G)] that are homomorphisms on
      [H[X]] and satisfy every [P_i], by dynamic programming over a
      tree decomposition of the contract [Γ(H,X)[X]] (each [δ_i] is a
      clique there, hence fits in a bag).

    The total cost is [|V(G)|^{O(ew)}] — polynomial for fixed
    extension width, in contrast to the [|V(G)|^{|X|}] enumeration
    route in {!Cq}.  Both are cross-validated in the test suite
    (against each other and against the original list-keyed DP, kept
    there as the oracle) and compared in bench series F3.

    This module is the one way the CLI, the daemon and the library
    count the answers of a CQ; the enumeration route stays as the
    independent count that the tests, the bench and {!Certificate}
    check it against. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [count_answers q g] is [|Ans(q, g)|] as a {!Wlcq_util.Bigint}
    (unlike enumeration, the DP can exceed native range).

    Runs on packed-key tables ([Wlcq_hom.Dp_key]) with the
    {!Wlcq_util.Count} int63 fast path; the bag enumeration is
    restricted to per-position candidate sets (target support, unary
    component predicates, arc consistency over the [H[X]] edges) with
    constraints checked as soon as their scope is assigned, and each
    constraint lives in the smallest bag covering its scope.
    [budget] is ticked per bag-enumeration node.
    @raise Budget.Exhausted when [budget] trips. *)
val count_answers : ?budget:Budget.t -> Cq.t -> Graph.t -> Wlcq_util.Bigint.t

(** Non-raising variant: [`Exhausted (partial, r)] carries a sound
    lower bound on [|Ans(q, g)|].  When the dispatch routed the count
    to the enumeration kernel, [partial] is the kernel's running total
    at the trip (it visits each free assignment once, in a fixed
    order, and counts only complete answers); when the packed DP ran,
    [partial] is [0], since a DP table cut off mid-run admits no sound
    reading.  Bumps [robust.fallback.fast_exhausted]. *)
val count_answers_budgeted :
  budget:Budget.t -> Cq.t -> Graph.t ->
  (Wlcq_util.Bigint.t, Wlcq_util.Bigint.t * Budget.reason) Outcome.t
