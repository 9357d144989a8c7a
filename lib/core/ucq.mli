(** Unions of conjunctive queries as first-class objects (§1.2, §5.3).

    A UCQ [φ₁ ∨ … ∨ φ_m] over a common head has as answers the
    assignments that answer at least one disjunct.  Its number of
    answers has a unique quantum-query representation
    ({!Quantum.of_union}), so by Corollary 5 its WL-dimension is the
    [hsew] of that quantum query. *)

open Wlcq_graph

type t = private Cq.t list

(** [make qs] validates a union: non-empty, equal positive arities,
    connected disjuncts.
    @raise Invalid_argument otherwise. *)
val make : Cq.t list -> t

(** [of_string s] parses the ['|']-separated surface syntax
    ({!Parser.parse_union}). *)
val of_string : string -> (t, string) result

val disjuncts : t -> Cq.t list

(** [count_answers u g] counts the union's answers through its
    quantum representation ({!to_quantum}), each constituent counted by
    {!Fast_count.count_answers} under [budget].
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips. *)
val count_answers :
  ?budget:Wlcq_robust.Budget.t -> t -> Graph.t -> Wlcq_util.Bigint.t

(** [to_quantum u] is the inclusion–exclusion quantum representation. *)
val to_quantum : t -> Quantum.t

(** [wl_dimension u] is the WL-dimension of [G ↦ |Ans(u, G)|]: the
    [hsew] of the quantum representation (Corollary 5). *)
val wl_dimension : t -> int
