(** Treewidth heuristics: upper bounds from greedy elimination orders
    and lower bounds from degeneracy / contraction.  These bracket the
    exact branch-and-bound search in {!Exact}. *)

open Wlcq_graph

(** [upper_bound_order g] is the better of the two greedy elimination
    orders — always eliminate a vertex of minimum current degree
    (min-degree), or one whose elimination adds the fewest fill edges
    (min-fill) — with the width it reaches.  Min-fill wins ties.
    [(-1, [])] for the empty graph. *)
val upper_bound_order : Graph.t -> int * int list

(** [upper_bound g] is the width of {!upper_bound_order}. *)
val upper_bound : Graph.t -> int

(** [lower_bound g] is a treewidth lower bound: the maximum, over the
    minor-monotone contraction sequence (MMD+), of the minimum degree —
    at least the degeneracy of [g]. *)
val lower_bound : Graph.t -> int
