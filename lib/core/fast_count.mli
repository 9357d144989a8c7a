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
    route in {!Cq}.  Where [ew] is large (stars: treewidth 1 but
    [sew = k]) the projection-row kernel below counts in time that
    follows the projections of the component homomorphisms instead.
    All routes are cross-validated in the test suite (against each
    other and against the original list-keyed DP, kept there as the
    oracle) and compared in bench series F3.

    This module is the one way the CLI, the daemon and the library
    count the answers of a CQ; the enumeration route stays as the
    independent count that the tests, the bench and {!Certificate}
    check it against. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [count_answers q g] is [|Ans(q, g)|] as a {!Wlcq_util.Bigint}
    (unlike enumeration, the DP can exceed native range).

    {!Wlcq_dispatch.Dispatch.choose_answers} picks one of two engines
    by their predicted work:
    - the projection-row kernel.  For each quantified component [C],
      with [x_last] the last variable of [δ_C] in {!Cq.free_vars}
      order, one sweep over [Hom(H[C ∪ δ_C] − x_last, G)] ORs
      [⋂_{u ∈ N_H(x_last)} N_G(φ(u))] into a row of [⌈|V(G)|/62⌉]
      words keyed by [φ]'s images of [δ_C − x_last]; only keys that
      occur are stored, so the table is as large as the projection.
      A join then backtracks over the free positions in order: each
      position's candidates are the AND of the rows of the components
      ending there and the adjacency rows of its assigned [H[X]]
      neighbours (all of [V(G)] with neither), and the last position
      adds its popcount.  [budget] is ticked per sweep and join node.
    - the packed component DP: {!Wlcq_hom.Td_count.run}, the loop
      that counts homomorphisms, run on [H[X]] over a decomposition of
      the contract [Γ(H,X)[X]], with one check per attached component
      (its predicate [P_i], memoised on the images of [δ_i]).  Its
      candidate sets are the target support, cut down by the unary
      predicates and by arc consistency over the edges of [H[X]].
      [budget] is ticked every 64 enumeration steps, as for
      homomorphism counts, not once per node, and by each predicate's
      pinned search.
    @raise Budget.Exhausted when [budget] trips. *)
val count_answers : ?budget:Budget.t -> Cq.t -> Graph.t -> Wlcq_util.Bigint.t

(** [answer_costs q g] is {!Wlcq_dispatch.Dispatch.answer_costs} on
    the features of [q] and [g]: the predicted work of the two engines
    {!count_answers} chooses between, [(kernel, dp)]. *)
val answer_costs : Cq.t -> Graph.t -> int * int

(** Non-raising variant: [`Exhausted (partial, r)] carries a sound
    lower bound on [|Ans(q, g)|].  When the dispatch routed the count
    to the projection-row kernel, [partial] is the kernel's running
    total at the trip (its join visits each free-assignment prefix
    once, in a fixed order, and adds only complete answers); when the
    packed DP ran, [partial] is [0], since a DP table cut off mid-run
    admits no sound reading.  Bumps [robust.fallback.fast_exhausted]. *)
val count_answers_budgeted :
  budget:Budget.t -> Cq.t -> Graph.t ->
  (Wlcq_util.Bigint.t, Wlcq_util.Bigint.t * Budget.reason) Outcome.t
