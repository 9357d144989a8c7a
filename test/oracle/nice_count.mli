(** Homomorphism counting by dynamic programming over a {e nice} tree
    decomposition of the pattern.

    An independent implementation of [|Hom(H, G)|] with one DP rule
    per node kind (leaf / introduce / forget / join), used to
    cross-validate [Wlcq_hom.Td_count] (which runs on arbitrary
    decompositions).  Same asymptotics: [O(|V(G)|^{w+1})] for
    decomposition width [w].  Test-only: no shipped code counts
    through it. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

(** [count h g] is [|Hom(h, g)|].  Runs on packed-key tables
    ([Wlcq_hom.Dp_key]) with the {!Wlcq_util.Count} int63 fast path.
    @raise Budget.Exhausted when [budget] trips. *)
val count : ?budget:Budget.t -> Graph.t -> Graph.t -> Wlcq_util.Bigint.t

(** Non-raising ladder, mirroring [Td_count.count_budgeted]:
    [`Degraded] values are exact counts over a heuristic (wider)
    decomposition. *)
val count_budgeted :
  budget:Budget.t -> Graph.t -> Graph.t ->
  (Wlcq_util.Bigint.t, Budget.reason) Outcome.t

(** [count_with_nice nd h g] uses the supplied nice decomposition
    (must be valid for [h]).
    @raise Invalid_argument otherwise.
    @raise Budget.Exhausted when [budget] trips. *)
val count_with_nice :
  ?budget:Budget.t ->
  Nice.t -> Graph.t -> Graph.t -> Wlcq_util.Bigint.t

(** The original int-list/Bigint engine, kept verbatim as a
    differential-testing oracle. *)
val count_reference : Graph.t -> Graph.t -> Wlcq_util.Bigint.t

(** Oracle variant of {!count_with_nice}.
    @raise Invalid_argument when [nd] is not valid for [h]. *)
val count_with_nice_reference :
  Nice.t -> Graph.t -> Graph.t -> Wlcq_util.Bigint.t
