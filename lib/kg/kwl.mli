(** The Weisfeiler-Leman algorithm on knowledge graphs
    (Section 1.3 (C), following Barceló et al.).

    Colour refinement starts from the vertex labels and folds the
    multiset of (edge label, direction, neighbour colour) triples per
    round; folklore k-WL starts from atomic types that record the
    vertex labels, equalities, and the labelled directed edges inside
    each k-tuple.  The extension changes only those atomic types, not
    the refinement, so the k-tuple rounds run on the flat plain-graph
    engine ({!Wlcq_wl.Kwl.run_many_typed_budgeted}) — with its
    dirty-set rounds and parallel signature computation — and this
    module computes the types.  On a plain graph encoded via
    {!Kgraph.of_graph} both algorithms coincide with the plain-graph
    ones — the test suite checks this compatibility. *)

module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

type result = Wlcq_wl.Kwl.result = {
  colours : int array;
  num_colours : int;
  rounds : int;
}

(** [refine g] is colour refinement (1-WL) on the knowledge graph. *)
val refine : Kgraph.t -> result

(** [refine_pair g1 g2] refines jointly (comparable colours). *)
val refine_pair : Kgraph.t -> Kgraph.t -> result * result

(** [run k g] is folklore k-WL on k-tuples ([k >= 2]). *)
val run : int -> Kgraph.t -> result

(** [run_pair k g1 g2] refines jointly. *)
val run_pair : int -> Kgraph.t -> Kgraph.t -> result * result

(** [equivalent k g1 g2] decides [g1 ≅_k g2] over knowledge graphs
    ([k = 1] is colour refinement).
    @raise Invalid_argument when [k < 1]. *)
val equivalent : int -> Kgraph.t -> Kgraph.t -> bool

(** {2 Budgeted entry points}

    The atomic typing is ticked per tuple and followed by one
    [Budget.poll]; the rounds follow the flat engine's protocol.  A
    trip after the typing keeps the last completed round's colourings
    (the typing itself when no round completed) — a sound stable-colour
    prefix ([`Degraded], [robust.fallback.kg_prefix]).  Only a trip
    during the typing or the engine's initial colouring aborts with no
    prefix ([`Exhausted], [robust.fallback.kg_exhausted]).  Runs also
    move the flat engine's [kwl.*] counters. *)

val run_many_budgeted :
  budget:Budget.t -> int -> Kgraph.t list ->
  (result list, Budget.reason) Outcome.t

val run_budgeted :
  budget:Budget.t -> int -> Kgraph.t ->
  (result, Budget.reason) Outcome.t

(** A histogram divergence at a completed round is permanent, so it
    yields [`Exact false] even under a tripped budget; an inconclusive
    prefix yields [`Exhausted].  For [k = 1], refinement runs
    unbudgeted (it is cheap) with a boundary check.
    @raise Invalid_argument when [k < 1]. *)
val equivalent_budgeted :
  budget:Budget.t -> int -> Kgraph.t -> Kgraph.t ->
  (bool, Budget.reason) Outcome.t

(** [histogram r] is the sorted [(colour, multiplicity)] list. *)
val histogram : result -> (int * int) list
