(** Conjunctive queries over graphs (Definitions 7–9).

    Following the paper, a conjunctive query is a pair [(H, X)]: a
    graph [H] whose vertices are the variables, with [X ⊆ V(H)] the
    free variables and [Y = V(H) \ X] the existentially quantified
    ones.  An answer in a data graph [G] is an assignment
    [a : X → V(G)] that extends to a homomorphism [H → G]
    (Definition 8).

    Assignments are represented as integer arrays parallel to
    {!free_vars} (which lists [X] in increasing vertex order). *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget

type t = private {
  graph : Graph.t;  (** the query graph [H] *)
  free : Wlcq_util.Bitset.t;  (** the free variables [X] *)
}

(** [make h xs] is the query [(h, xs)].
    @raise Invalid_argument when [xs] contains duplicates or
    out-of-range vertices. *)
val make : Graph.t -> int list -> t

(** [free_vars q] is [X] in increasing order. *)
val free_vars : t -> int array

(** [quantified_vars q] is [Y = V(H) \ X] in increasing order. *)
val quantified_vars : t -> int array

(** [num_free q] is [|X|]. *)
val num_free : t -> int

(** [is_full q] holds when [X = V(H)] (no quantified variables). *)
val is_full : t -> bool

(** [is_boolean q] holds when [X = ∅]. *)
val is_boolean : t -> bool

(** [is_connected q] tests connectivity of [H] (Definition 7). *)
val is_connected : t -> bool

(** [is_answer q g a] tests whether the assignment [a] (parallel to
    [free_vars q]) extends to a homomorphism. *)
val is_answer : t -> Graph.t -> int array -> bool

(** [count_answers q g] is [|Ans(q, g)|] by enumerating the
    [|V(g)|^|X|] candidate assignments.  This is the independent
    enumeration route that tests, benchmarks and {!Certificate} check
    {!Fast_count.count_answers} against; shipped surfaces count with
    {!Fast_count}.  [budget] is ticked once per candidate assignment.
    @raise Budget.Exhausted when [budget] trips. *)
val count_answers : ?budget:Budget.t -> t -> Graph.t -> int

(** [iter_answers q g f] applies [f] to every answer; the array is
    reused between calls.
    @raise Budget.Exhausted when [budget] trips. *)
val iter_answers :
  ?budget:Budget.t -> t -> Graph.t -> (int array -> unit) -> unit

(** [count_answers_tau q g ~c ~tau] is [|Ans^τ(q, (g, c))|] of
    Definition 36: answers [a] with [c(a(x)) = tau(x)] for each free
    variable — [c] is an [H]-colouring of [g] and [tau] maps free-var
    positions to vertices of [H]. *)
val count_answers_tau : t -> Graph.t -> c:int array -> tau:int array -> int

(** [count_cp_answers q g ~c] is [|cpAns(q, (g, c))|] of Definition 48:
    answers extendable to a {e colour-prescribed} homomorphism
    ([c(h(v)) = v] for all variables [v], free and quantified). *)
val count_cp_answers : t -> Graph.t -> c:int array -> int

(** [isomorphic q1 q2] tests query isomorphism: a graph isomorphism
    mapping free variables onto free variables (Section 2.1). *)
val isomorphic : t -> t -> bool

(** [partial_automorphisms q] is [Aut(H, X)] of Definition 42: the
    restrictions to [X] of automorphisms of [H] that preserve [X]
    setwise, as arrays over free-variable positions (position [i]
    holds the position of the image of the [i]-th free variable). *)
val partial_automorphisms : t -> int array list

(** [relabel q p] renames the variables by the permutation [p]. *)
val relabel : t -> Wlcq_util.Perm.t -> t

(** [normal_form q] is the canonical representative of [q]'s
    isomorphism class (free variables respected, Definition 9):
    [(nf, p, digest)] with [nf = relabel q p] the canonically labelled
    query and [digest] a stable content address — isomorphic queries
    get identical [nf] and [digest], and queries that differ in which
    variables are free do not.  [limit] and [budget] bound the
    underlying individualization–refinement search
    ({!Wlcq_graph.Iso.canonical_form}). *)
val normal_form :
  ?budget:Wlcq_robust.Budget.t -> ?limit:int -> t ->
  t * Wlcq_util.Perm.t * string

(** [pp] prints as [(graph(...), X={...})]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
