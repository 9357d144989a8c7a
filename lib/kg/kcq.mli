(** Conjunctive queries over knowledge graphs (Section 1.3, item C).

    A query is a knowledge graph [H] (variables, with labelled
    directed atoms between them and vertex-label atoms on them)
    together with the free-variable set [X].  Answers, counting
    equivalence, the extension graph [Γ], extension width, and the
    semantic extension width all lift verbatim, with treewidth taken
    over the {e underlying} Gaifman graph.  The paper's Theorem 1
    extends to this setting; the test suite checks consistency with
    the plain-graph machinery under the {!Kgraph.of_graph} encoding. *)

module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget

type t = private { graph : Kgraph.t; free : Bitset.t }

(** [make h xs] is the query [(h, xs)].
    @raise Invalid_argument on duplicates or out-of-range variables. *)
val make : Kgraph.t -> int list -> t

val free_vars : t -> int array
val quantified_vars : t -> int array
val num_free : t -> int
val is_connected : t -> bool
(** Connectivity of the underlying Gaifman graph. *)

(** [is_answer q g a] tests extendability of the assignment [a]
    (parallel to [free_vars q]) to a knowledge-graph homomorphism.
    [budget] is ticked per node of the extension search.
    @raise Budget.Exhausted when [budget] trips. *)
val is_answer : ?budget:Budget.t -> t -> Kgraph.t -> int array -> bool

(** [count_answers q g] is [|Ans(q, g)|].  [budget] is ticked once per
    candidate assignment and per node of each extension search.
    @raise Budget.Exhausted when [budget] trips. *)
val count_answers : ?budget:Budget.t -> t -> Kgraph.t -> int

(** [extension_width q] is [tw(Γ(H, X))], with [Γ] taken over the
    underlying graph: {!Wlcq_core.Extension.extension_width} of
    [H]'s Gaifman graph with the same free variables.  It has no use
    for a degraded bound.
    @raise Budget.Exhausted when [budget] trips. *)
val extension_width : ?budget:Budget.t -> t -> int

(** [counting_core q] is the counting-minimal representative (the
    Lemma 44 machinery lifted to knowledge graphs): the image of a
    label- and direction-preserving endomorphism that fixes [X]
    pointwise and misses a quantified variable, induced and taken
    recursively.  The maps come from {!Wlcq_core.Minimize.retraction}
    over {!Khom.iter}; [budget] is polled once per quantified variable
    and ticked per search node.
    @raise Budget.Exhausted when [budget] trips. *)
val counting_core : ?budget:Budget.t -> t -> t

(** [is_counting_minimal q] holds when no endomorphism fixes [X]
    pointwise and misses a quantified variable (equivalently, none maps
    [X] bijectively onto [X] with a proper image).
    @raise Budget.Exhausted when [budget] trips. *)
val is_counting_minimal : ?budget:Budget.t -> t -> bool

(** [semantic_extension_width q] is the extension width of the
    counting core.
    @raise Budget.Exhausted when [budget] trips. *)
val semantic_extension_width : ?budget:Budget.t -> t -> int

(** [wl_dimension q] is the WL-dimension over knowledge graphs: the
    semantic extension width (Theorem 1 as extended by Section 1.3
    (C)); connected queries with [X ≠ ∅] only.
    @raise Budget.Exhausted when [budget] trips. *)
val wl_dimension : ?budget:Budget.t -> t -> int

(** [of_cq q] encodes a plain-graph query via {!Kgraph.of_graph}
    (vertex label 0, edge label 0). *)
val of_cq : Wlcq_core.Cq.t -> t
