(** Homomorphism counting by dynamic programming over a tree
    decomposition of the pattern.

    This is the classical [O(|V(G)|^{w+1})] algorithm (w = width of the
    decomposition of [H]) that makes homomorphism counts from
    bounded-treewidth graphs tractable.  It is the computational engine
    behind the paper's upper bound: Observation 23 computes
    [|Ans((H,X),G)|] from the counts [|Hom(F_ℓ, G)|], and the graphs
    [F_ℓ] have treewidth at most [ew(H,X)] (Lemma 16), so each count is
    produced by this module in polynomial time for fixed width.

    The DP runs on flat sparse tables keyed by packed bag assignments
    ({!Dp_key}), with an int63-with-overflow-promotion arithmetic fast
    path ({!Wlcq_util.Count}), arc-consistency candidate pruning, and
    parallel processing of independent decomposition subtrees (from
    the calibration table's [dp_parallel_min] work up);
    {!Wlcq_dispatch.Dispatch} sends tiny instances to {!Brute}
    instead.  The original int-list/Bigint engine
    lives on in the test suite as the differential oracle.

    All entry points accept [?candidates] restricting the image of each
    pattern vertex (colour-prescribed homomorphisms, Definition 48);
    pins are the singleton special case.

    Counts are returned as {!Wlcq_util.Bigint} values: unlike
    enumeration, the DP multiplies sub-counts and can exceed the native
    integer range. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [count h g] is [|Hom(h, g)|], computed over an optimal tree
    decomposition of [h] (memoised in {!Wlcq_treewidth.Exact}).
    [budget] is ticked throughout the DP (workers tick a shared atomic
    trip flag and wind down cooperatively; the decomposition step is
    {e not} budgeted on this raising entry point — use
    {!count_budgeted} for the full ladder).
    @raise Budget.Exhausted when [budget] trips. *)
val count :
  ?budget:Budget.t ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Graph.t -> Graph.t -> Wlcq_util.Bigint.t

(** [count_with_decomposition d h g] uses the supplied decomposition
    (which must be valid for [h]).
    @raise Invalid_argument when [d] is not valid for [h].
    @raise Budget.Exhausted when [budget] trips. *)
val count_with_decomposition :
  ?budget:Budget.t ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Wlcq_treewidth.Decomposition.t -> Graph.t -> Graph.t ->
  Wlcq_util.Bigint.t

(** [count_budgeted ~budget h g] is the non-raising ladder: [`Exact]
    when nothing tripped; [`Degraded (v, _)] when the treewidth search
    fell back to a heuristic decomposition — [v] is still the {e exact}
    homomorphism count, only the DP ran over a wider decomposition;
    [`Exhausted r] when the budget tripped inside the DP itself.
    Counters: [robust.fallback.td_heuristic_decomp],
    [robust.fallback.td_exhausted]; a [Fault.Domain_spawn] injection
    demotes parallel strides to the driver
    ([robust.fallback.td_seq_resume]) with byte-identical results. *)
val count_budgeted :
  budget:Budget.t ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Graph.t -> Graph.t ->
  (Wlcq_util.Bigint.t, Budget.reason) Outcome.t

(** Non-raising variant of {!count_with_decomposition}. *)
val count_with_decomposition_budgeted :
  budget:Budget.t ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Wlcq_treewidth.Decomposition.t -> Graph.t -> Graph.t ->
  (Wlcq_util.Bigint.t, Budget.reason) Outcome.t

(** [count_many hs g] is [List.map (fun h -> count h g) hs], but
    sharing one decomposition across patterns whenever a pattern is the
    induced prefix of the largest one (the Lemma 22 extension family
    F_1 ⊆ … ⊆ F_L is laid out like that) and one candidate seed
    structure for the whole batch — the batch entry point of the
    interpolation pipeline ([Wl_dimension], [Certificate]).
    @raise Budget.Exhausted when [budget] trips during any pattern's
    DP. *)
val count_many :
  ?budget:Budget.t ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Graph.t list -> Graph.t -> Wlcq_util.Bigint.t list
