(** Exact treewidth.

    The default solver is a branch-and-bound search over elimination
    orders (QuickBB-style) with memoisation on the eliminated set —
    sound because the filled graph after eliminating a set of vertices
    is independent of the elimination order within the set.  It is
    bracketed by the greedy upper bounds and the contraction lower
    bound of {!Heuristics}, and searches on the same flat-word
    elimination state they use (adjacency rows of ⌈n/62⌉ words; one
    array copy per search node).  The search polls its budget on
    every node and counts its nodes in [tw.search_nodes].

    A Held–Karp-style subset dynamic program ({!treewidth_dp}) is
    provided as an independent implementation for cross-validation
    (see the ablation notes in DESIGN.md). *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [treewidth g] is the exact treewidth of [g] ([-1] for the empty
    graph, [0] for edgeless graphs). *)
val treewidth : Graph.t -> int

(** [treewidth_budgeted ~budget g] is the budgeted variant: [`Exact w]
    when the branch and bound finished, [`Degraded (ub, _)] when
    [budget] tripped.  The heuristic bracket before the search polls
    [budget] once per greedy or contraction step, so [ub] is the best
    bound found by the trip: the {!Heuristics} upper bound (min-degree
    / min-fill) when the search was cut, the min-degree width when a
    later bracket pass was, and [n - 1] inside the min-degree pass.
    Never [`Exhausted]: [n - 1] is always sound.  Bumps the
    [robust.fallback.tw_heuristic] counter on degradation. *)
val treewidth_budgeted : budget:Budget.t -> Graph.t -> (int, 'p) Outcome.t

(** [treewidth_stored ~budget g] is {!treewidth_budgeted} through the
    decomposition store, for a caller whose repeats arrive relabelled
    (the daemon): a graph whose heuristic bracket closes is answered
    from it and stored nowhere; a graph that takes a search is looked
    up, and its exact result stored, under its canonical address
    (labelled within [budget]; a trip there solves without the store),
    so relabelled copies share one entry. *)
val treewidth_stored : budget:Budget.t -> Graph.t -> (int, 'p) Outcome.t

(** [optimal_decomposition_budgeted ~budget g] is {!optimal_decomposition}
    under a budget: [`Degraded] carries a valid (but possibly
    wider-than-optimal) decomposition from the order behind
    {!treewidth_budgeted}'s degraded width (the identity order when
    the min-degree pass was cut).  Degraded decompositions never
    enter the memo. *)
val optimal_decomposition_budgeted :
  budget:Budget.t -> Graph.t -> (Decomposition.t, 'p) Outcome.t

(** [optimal_order g] is an elimination order witnessing
    [treewidth g]. *)
val optimal_order : Graph.t -> int list

(** [optimal_decomposition g] is a minimum-width tree decomposition.
    Memoised in the content-addressed cache tier ({!Wlcq_cache.Cache};
    [Cache.clear ()] empties it), since the interpolation pipeline
    re-decomposes the same small patterns many times.  When the
    branch and bound runs the key is the canonical form, so relabelled
    copies hit; when the heuristic bracket closes, the greedy order is
    cheaper to recompute than to canonically address, and the key is
    the graph as labelled. *)
val optimal_decomposition : Graph.t -> Decomposition.t

(** [is_at_most g k] decides [treewidth g <= k]. *)
val is_at_most : Graph.t -> int -> bool

(** [treewidth_dp g] computes the treewidth by the O(2^n · n²) subset
    dynamic program.
    @raise Invalid_argument when [g] has more than 22 vertices. *)
val treewidth_dp : Graph.t -> int
