(** Nice tree decompositions.

    A nice decomposition is a rooted binary-shaped normal form where
    every node is one of: a {e leaf} with an empty bag, an
    {e introduce} node adding one vertex to its child's bag, a
    {e forget} node removing one vertex, or a {e join} of two children
    with identical bags.  Dynamic programs become one-rule-per-node
    (see {!Nice_count} for homomorphism counting); converting
    through this normal form also cross-validates the plain
    bag-DP used elsewhere.  Test-only, like {!Nice_count}. *)

open Wlcq_graph
open Wlcq_treewidth
module Bitset = Wlcq_util.Bitset

type node =
  | Leaf  (** empty bag *)
  | Introduce of int * int  (** [(v, child)]: bag = child's bag + v *)
  | Forget of int * int  (** [(v, child)]: bag = child's bag - v *)
  | Join of int * int  (** two children with bags equal to this bag *)

type t = {
  nodes : node array;
  bags : Bitset.t array;  (** bag of each node, over [V(H)] *)
  root : int;  (** the root has an empty bag *)
}

(** [of_decomposition d ~universe] converts an ordinary tree
    decomposition into a nice one over a graph with [universe]
    vertices.  The result's width equals the input width (leaf/root
    ramps only shrink bags).  Handles the empty tree. *)
val of_decomposition : Decomposition.t -> universe:int -> t

(** [width t] is the maximum bag size minus one. *)
val width : t -> int

(** [is_valid_for t h] checks the structural rules and that [t] is a
    tree decomposition of [h]: every vertex introduced and forgotten
    consistently, every edge covered by some bag, connectivity of the
    occurrences of each vertex (implied by single-forget), and bags
    matching the node kinds. *)
val is_valid_for : t -> Graph.t -> bool

(** [num_nodes t] is the number of nodes. *)
val num_nodes : t -> int
