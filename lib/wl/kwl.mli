(** The folklore k-dimensional Weisfeiler-Leman algorithm.

    For [k >= 2], folklore k-WL colours the k-tuples of vertices:
    initially by their atomic type (the equality and adjacency pattern
    of the tuple), then iteratively by
    [c'(v̄) = (c(v̄), {{ (c(v̄[1/w]), …, c(v̄[k/w])) : w ∈ V }})]
    until stable.  Two graphs have equal stable colour histograms iff
    they agree on homomorphism counts from all graphs of treewidth at
    most k (Dvořák; Dell–Grohe–Rattan) — which is exactly the paper's
    Definition 19 of [≅_k].  The [k = 1] case of Definition 19 is
    colour refinement and is handled by {!Refinement}; this module
    requires [k >= 2].

    Two engines are provided.  The default one works on flat [int
    array] colour buffers with a precomputed base-[n] decode table,
    packs each round signature into machine words, renumbers through a
    hash table keyed on a 64-bit rolling hash (every lookup is
    verified against the stored packed signature, so correctness never
    depends on hash luck), recolours only the tuples whose
    substitution neighbourhood touched a colour class that split last
    round, and parallelises signature computation across tuple chunks
    with [Domain.spawn] on large rounds.  The [*_reference] functions
    run the original list-based implementation; both produce the same
    stable partition, round count and colour count (the concrete
    colour ids may differ — ids are canonical within one run, not
    across runs or engines).

    Complexity is Θ(n^{k+1}) per full round, with sub-full rounds once
    refinement localises.  The tuple space [n^k] (and the [k·n^k]
    decode table) must fit [Sys.max_array_length] and the heap; the
    entry points raise [Invalid_argument] instead of silently
    overflowing or letting [Out_of_memory] escape. *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

type result = {
  colours : int array;  (** stable colour of each of the [n^k] tuples,
                            indexed by the base-[n] encoding of the
                            tuple *)
  num_colours : int;  (** colours in the shared namespace *)
  rounds : int;  (** rounds until stabilisation *)
}

(** [tuple_count k n] is [n^k], the size of the tuple space of an
    [n]-vertex structure.
    @raise Invalid_argument when [n^k] (or the [k·n^k] decode table)
    exceeds [Sys.max_array_length]. *)
val tuple_count : int -> int -> int

(** [run k g] refines the k-tuples of [g].  [domains] caps the number
    of domains used for signature computation (default:
    [Domain.recommended_domain_count ()]; small rounds always run
    sequentially; [~domains:1] forces a single-threaded run).
    @raise Invalid_argument when [k < 2] or [n^k] exceeds
    [Sys.max_array_length]. *)
val run : ?domains:int -> int -> Graph.t -> result

(** [run_pair k g1 g2] refines both graphs in a shared namespace. *)
val run_pair : ?domains:int -> int -> Graph.t -> Graph.t -> result * result

(** [run_many k graphs] refines every graph in one shared colour
    namespace (the generalisation behind {!run_pair}). *)
val run_many : ?domains:int -> int -> Graph.t list -> result list

(** [histogram r] is the sorted [(colour, multiplicity)] list. *)
val histogram : result -> (int * int) list

(** [equivalent k g1 g2] tests folklore-k-WL-equivalence ([k >= 2]).
    Exits early as soon as the joint colour histograms of the two
    graphs diverge (refinement only splits classes, so divergence is
    permanent). *)
val equivalent : ?domains:int -> int -> Graph.t -> Graph.t -> bool

(** {2 Budgeted entry points}

    The budget is ticked per tuple inside signature computation;
    workers never unwind across [Domain.spawn] — they set a shared
    atomic trip flag and wind down, and the driver aborts {e before}
    the sequential renumbering phase, so on [`Degraded] the colour
    buffers hold the last {e completed} round's colouring: a sound
    prefix of the stable colouring (refinement only splits classes).
    A [Fault.Domain_spawn] injection demotes that worker's chunk to
    the driver ([robust.fallback.kwl_seq_compute]) with byte-identical
    results. *)

(** [run_many_budgeted ~budget k graphs]: [`Exact results] when the
    refinement stabilised; [`Degraded (results, _)] with the sound
    stable-colour prefix after the recorded number of completed rounds
    ([robust.fallback.kwl_prefix]); [`Exhausted] only when the budget
    tripped during the initial atomic-type colouring, before any round
    completed ([robust.fallback.kwl_exhausted]).
    @raise Invalid_argument as {!run_many}. *)
val run_many_budgeted :
  ?domains:int -> budget:Budget.t -> int -> Graph.t list ->
  (result list, Budget.reason) Outcome.t

(** [run_many_typed_budgeted ~budget k structures] is
    {!run_many_budgeted} over caller-typed structures: each is [(n,
    types)], where [types.(idx)] is the atomic type of the tuple with
    base-[n] index [idx] — any int, equal ints meaning equal types
    across all structures.  Only the initial colouring differs from the
    plain-graph engine; the rounds, budget protocol and counters are
    the same.  Knowledge-graph k-WL ([Wlcq_kg.Kwl]) runs here, encoding
    vertex labels and labelled edge directions in the types.
    @raise Invalid_argument when [k < 2], when a [types] array is not
    [n^k] long, or as {!run_many}. *)
val run_many_typed_budgeted :
  ?domains:int -> budget:Budget.t -> int -> (int * int array) list ->
  (result list, Budget.reason) Outcome.t

(** Single-graph variant of {!run_many_budgeted}. *)
val run_budgeted :
  ?domains:int -> budget:Budget.t -> int -> Graph.t ->
  (result, Budget.reason) Outcome.t

(** [equivalent_budgeted ~budget k g1 g2]: a histogram divergence seen
    before the trip is permanent, so it yields a definitive
    [`Exact false] even under a tripped budget; only "no divergence
    observed before the stable colouring" degrades to [`Exhausted]
    (this outcome never carries [`Degraded]).
    @raise Invalid_argument as {!equivalent}. *)
val equivalent_budgeted :
  ?domains:int -> budget:Budget.t -> int -> Graph.t -> Graph.t ->
  (bool, Budget.reason) Outcome.t

(** {2 Reference engine}

    The original list-based implementation, kept as the differential
    oracle for the optimised engine.  Same partitions, same [rounds],
    same [num_colours]; colour ids may differ. *)

val run_reference : int -> Graph.t -> result
val run_pair_reference : int -> Graph.t -> Graph.t -> result * result
val run_many_reference : int -> Graph.t list -> result list
val equivalent_reference : int -> Graph.t -> Graph.t -> bool
