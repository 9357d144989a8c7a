(** Treewidth heuristics: upper bounds from greedy elimination orders
    and lower bounds from degeneracy / contraction.  These bracket the
    exact branch-and-bound search in {!Exact}. *)

open Wlcq_graph

(** [min_degree_order ?budget g] is the greedy elimination order that
    always eliminates a vertex of minimum current degree, with the
    width it reaches ([(-1, [])] for the empty graph).  [budget] is
    polled once per elimination step.
    @raise Budget.Exhausted when [budget] trips. *)
val min_degree_order :
  ?budget:Wlcq_robust.Budget.t -> Graph.t -> int * int list

(** [min_fill_order ?budget g] is the greedy order that always
    eliminates a vertex whose elimination adds the fewest fill edges,
    polled like {!min_degree_order}.
    @raise Budget.Exhausted when [budget] trips. *)
val min_fill_order : ?budget:Wlcq_robust.Budget.t -> Graph.t -> int * int list

(** [upper_bound_order g] is the better of {!min_degree_order} and
    {!min_fill_order}, with the width it reaches.  Min-fill wins ties.
    [(-1, [])] for the empty graph. *)
val upper_bound_order : Graph.t -> int * int list

(** [upper_bound g] is the width of {!upper_bound_order}. *)
val upper_bound : Graph.t -> int

(** [lower_bound ?budget g] is a treewidth lower bound: the maximum,
    over the minor-monotone contraction sequence (MMD+), of the
    minimum degree — at least the degeneracy of [g].  [budget] is
    polled once per contraction step.
    @raise Budget.Exhausted when [budget] trips. *)
val lower_bound : ?budget:Wlcq_robust.Budget.t -> Graph.t -> int
