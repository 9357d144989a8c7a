(** Homomorphism counting by dynamic programming over a tree
    decomposition of the pattern: the one DP loop of the library.

    This is the classical [O(|V(G)|^{w+1})] algorithm (w = width of the
    decomposition of [H]) that makes homomorphism counts from
    bounded-treewidth graphs tractable.  It has two callers:
    - {!count} and its variants count [Hom(H, G)].  Observation 23
      computes [|Ans((H,X),G)|] from the counts [|Hom(F_ℓ, G)|], and
      the graphs [F_ℓ] have treewidth at most [ew(H,X)] (Lemma 16), so
      each count is produced here in polynomial time for fixed width;
    - [Wlcq_core.Fast_count]'s Corollary 4 engine runs {!run} on [H[X]]
      over a decomposition of the contract [Γ(H,X)[X]], with one
      {!check} per quantified component: the extendability predicate
      of its attachment set.

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

(** {1 The DP loop}

    The pieces {!count} is built from, for engines that count maps of
    a pattern under extra constraints. *)

(** A counter family: the seven counters [P.dp_entries],
    [P.packed_keys], [P.hashed_keys], [P.int63_values],
    [P.bigint_promotions], [P.candidates_total] and
    [P.candidates_pruned] for a prefix [P].  {!arc_consistent} and
    {!run} report into the family their caller names; {!count} and
    its variants report into [td_count].  The loop's own counters
    ([td_count.seq_runs]/[par_runs], [td_count.bag_size],
    [dispatch.chose_seq]/[chose_par]) count every run, whoever calls. *)
type counters

(** [counters prefix] is the family [prefix], registered on first use. *)
val counters : string -> counters

(** [support g] is the set of vertices of [g] with an incident edge:
    a pattern vertex with an edge can only map there. *)
val support : Graph.t -> Wlcq_util.Bitset.t

(** [arc_consistent ~counters ?candidates ?seed h g] is one candidate
    set per vertex [u] of [h]: [candidates u] (all of [V(g)] by
    default), intersected with [seed] when [u] has an edge in [h], then
    refined to the arc-consistency fixpoint over the edges of [h].  It
    drops only images that no homomorphism respecting the candidates
    uses.  Adds to [counters]' [candidates_total] and
    [candidates_pruned]. *)
val arc_consistent :
  counters:counters ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  ?seed:Wlcq_util.Bitset.t ->
  Graph.t -> Graph.t -> Wlcq_util.Bitset.t array

(** A predicate on the images of [scope], a non-empty array of pattern
    vertices.  [holds] receives those images in scope order, in a
    scratch array the loop reuses: copy it to keep it. *)
type check = { scope : int array; holds : int array -> bool }

(** [run ~budget ~counters ?checks d h g cand] is the number of
    homomorphisms [φ : h → g] with [φ(u) ∈ cand.(u)] for every [u] that
    pass every check, over the decomposition [d] of [h] (not
    validated).  Each check lives in the smallest bag covering its
    scope (lowest node on ties) and is called once the scope's last
    position in that bag is assigned, on the images placed so far;
    positions with no check make no call.  A check's answer must
    depend only on the images it is given.  Only the node owning a
    check calls it, on whichever domain runs that node, so a check may
    keep private mutable state (a memo) even when the run fans out.

    [budget] is ticked every 64 enumeration steps.  A check may raise
    [Budget.Exhausted] (from polling [budget]): the loop trips [budget]
    with its reason, winds down as on any trip and returns [Error].
    Tables go back to {!Dp_key}'s pool either way.
    @raise Invalid_argument when a check's scope is empty or lies in no
    bag of [d]. *)
val run :
  budget:Budget.t ->
  counters:counters ->
  ?checks:check list ->
  Wlcq_treewidth.Decomposition.t -> Graph.t -> Graph.t ->
  Wlcq_util.Bitset.t array ->
  (Wlcq_util.Bigint.t, Budget.reason) result
