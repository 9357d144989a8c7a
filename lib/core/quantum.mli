(** Quantum queries — finite linear combinations of conjunctive
    queries (Definition 63) — and their WL-dimension (Corollary 5).

    A quantum query [Q = Σ c_i · (H_i, X_i)] has pairwise
    non-isomorphic, connected, counting-minimal constituents with
    non-zero rational coefficients and at least one free variable
    each.  Unions of conjunctive queries (and CQs with disequalities /
    negations on free variables) have unique quantum representations;
    {!of_union} implements the UCQ case by inclusion–exclusion, and
    {!injective_star} the Corollary-68 expansion of injective star
    answers. *)

open Wlcq_graph
module Rat = Wlcq_util.Rat

type term = { coeff : Rat.t; query : Cq.t }
type t = private term list

(** [make terms] normalises and validates: queries are replaced by
    their counting cores, isomorphic constituents are merged by adding
    coefficients, zero terms are dropped.  Errors when a constituent is
    disconnected or has no free variable. *)
val make : (Rat.t * Cq.t) list -> (t, string) result

(** [make_exn terms] is {!make}, raising [Invalid_argument]. *)
val make_exn : (Rat.t * Cq.t) list -> t

(** [terms q] lists the constituents. *)
val terms : t -> term list

(** [evaluate q g] is [|Ans(Q, g)| = Σ c_i · |Ans((H_i,X_i), g)|],
    each constituent counted by {!Fast_count.count_answers} under
    [budget].  A signed sum has no sound partial, so a trip escapes.
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips. *)
val evaluate : ?budget:Wlcq_robust.Budget.t -> t -> Graph.t -> Rat.t

(** [hsew q] is the hereditary semantic extension width: the maximum
    [sew] of a constituent (Definition 64). *)
val hsew : t -> int

(** [wl_dimension q] is the WL-dimension of [G ↦ |Ans(Q,G)|], equal to
    [hsew q] by Corollary 5. *)
val wl_dimension : t -> int

(** [of_union qs] is the quantum representation of the union
    [φ_1 ∨ … ∨ φ_m]: an answer of the union is an assignment that is
    an answer of at least one [φ_i].  All queries must have the same
    number of free variables (identified positionally), each must be
    connected with at least one free variable.
    @raise Invalid_argument on arity mismatch or empty input. *)
val of_union : Cq.t list -> t

(** [conjoin q1 q2] is the conjunction: the two queries glued on their
    free variables (positionally).  Exposed for tests. *)
val conjoin : Cq.t -> Cq.t -> Cq.t

(** [injective_star k] is the Corollary-68 quantum query with
    [|Ans| = Inj((S_k, X_k), ·)]: constituents [(S_i, X_i)] with the
    signed-Stirling coefficients [s(k, i)]. *)
val injective_star : int -> t

(** [injective_expansion q] is the quantum query whose evaluation is
    the number of {e injective} answers of [q] (a conjunctive query
    with disequalities [x_i ≠ x_j] between all free variables, §5.3):
    Möbius inversion over the partition lattice of the free variables,
    with identified queries [q/ρ] as constituents (identifications
    creating self-loop atoms contribute nothing and are dropped).
    [q] must be connected with [X ≠ ∅].  Generalises
    {!injective_star}. *)
val injective_expansion : Cq.t -> t

(** [count_injective_answers q g] counts the answers of [q] in [g]
    that are injective on [X]: the Möbius sum [Σ_ρ μ(ρ) · |Ans(q/ρ, g)|]
    of {!injective_expansion}, each term counted by
    {!Fast_count.count_answers} under [budget].  It takes any query
    (disconnected, boolean, edges inside [X]) and does not normalise
    the quotients: at most Bell(|X|) counts.
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips. *)
val count_injective_answers :
  ?budget:Wlcq_robust.Budget.t -> Cq.t -> Graph.t -> Wlcq_util.Bigint.t

(** [with_free_negations q pairs] is the quantum query whose
    evaluation counts the answers of [q] additionally satisfying
    [¬E(x_a, x_b)] for each pair of free-variable {e positions} in
    [pairs] (negations over free variables, §5.3), by
    inclusion–exclusion over the negated atoms.
    @raise Invalid_argument when a position is out of range or a pair
    is diagonal. *)
val with_free_negations : Cq.t -> (int * int) list -> t

(** [lower_bound_witness ?max_tensor_size q] constructs the
    Corollary 5 lower bound: a pair of graphs that are
    [(hsew(q) − 1)]-WL-equivalent yet evaluate differently under [q].
    Following the proof, it takes the Theorem 1 separating pair
    [(G, G')] of an [hsew]-attaining constituent and searches small
    graphs [H] (at most [max_tensor_size] vertices, default 3) until
    the tensor products [G ⊗ H] and [G' ⊗ H] are separated by [q];
    [H = K₁'s one-vertex reflexive-free tensor is skipped in favour of
    the original pair first.  Returns [None] when the bounded search
    fails or the constituent has a full-query core. *)
val lower_bound_witness :
  ?max_tensor_size:int -> t -> (Wlcq_graph.Graph.t * Wlcq_graph.Graph.t) option

(** [pp] prints as [3·q1 - 1/2·q2]. *)
val pp : Format.formatter -> t -> unit
