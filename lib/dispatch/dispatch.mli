(** Adaptive engine dispatch: one calibrated cost model for every
    engine-selection decision in the tree.

    The counting engines each face the same choice — pay the setup cost
    of the packed machinery (decomposition, candidate pruning, packed
    key tables, worker domains) or run a direct algorithm whose setup is
    free.  Before this module the cutoffs lived as ad-hoc magic numbers
    inside each engine (the DP and k-WL fan-out thresholds,
    [Dp_key.dense_bits], …).  They now live in
    one auditable {!calibration} table, every decision goes through a
    function here, and every decision increments a [dispatch.*] Obs
    counter so mispredictions are observable in production
    (bench's timing-smoke asserts on them).

    Decisions are made from {e cheap} instance features only — vertex
    and edge counts, bag arity sums, packed-keyspace width, free
    variable counts — never from anything that itself costs a traversal
    of the instance.

    Constants are re-derivable: [bench/main.exe calibrate] times the
    candidate engines across an instance ladder and prints the observed
    crossover points in the table's own format (see DESIGN.md,
    "Adaptive engine dispatch").

    The table is also the only way to steer engine choice.
    Differential tests and benchmarks that want a particular engine
    install a table whose cutoffs route every instance there —
    [brute_hom_max], [prune_min_work] and [enum_answers_max] at [0]
    give the full packed pipeline — and restore the defaults with
    {!reset_calibration}. *)

(** {2 The calibration table}

    All constants in one place.  Work units are {e estimated elementary
    DP/search steps} (saturating, see {!sat_pow}); weights follow each
    engine's historical convention so the decisions stay byte-identical
    to the thresholds they replaced. *)

type calibration = {
  brute_hom_max : int;
      (** choose backtracking enumeration over the treewidth DP when the
          estimated brute work {!brute_cost} is at most this *)
  prune_min_work : int;
      (** run the arc-consistency candidate fixpoint only when the
          estimated DP work (Σ_bags ng^arity) is at least this; below
          it the fixpoint costs more than the pruning saves *)
  enum_answers_max : int;
      (** answer counting: run the projection-row kernel while its
          predicted work is at most this many steps per work unit of
          the packed DP (see {!answer_costs}); a DP unit, one pinned
          component search, costs about this many kernel steps *)
  dp_parallel_min : int;
      (** Σ_bags ng^arity at which the treewidth DP fans independent
          root subtrees out to worker domains; [0] forces fan-out and
          [max_int] forbids it *)
  wl_parallel_min : int;
      (** round weight (m · max_n · k) at which k-WL signature
          computation fans out to worker domains; [0] and [max_int]
          as for [dp_parallel_min] *)
  wl_chunk : int;  (** k-WL tuples per parallel chunk *)
  dense_key_bits : int;
      (** packed DP tables switch from the dense flat array to the
          sparse int table above this keyspace width (bits) *)
  canon_node_steps : int;
      (** one node of the canonical-labelling search costs about this
          many kernel steps (the unit of {!answer_costs}'s kernel side)
          per vertex and edge of the graph: the divisor that turns
          predicted engine work into a node budget ({!address_nodes}) *)
}

(** The live table.  Mutable as a whole (a single ref holding an
    immutable record): write it from the driver domain before a run,
    never from workers. *)
val calibration : unit -> calibration

val set_calibration : calibration -> unit

(** The compiled-in defaults (what [calibration] holds at start-up). *)
val default_calibration : calibration

val reset_calibration : unit -> unit

(** {2 Features}

    Saturating arithmetic: estimates cap at {!sat_cap} so they can be
    compared against thresholds without overflow anywhere. *)

val sat_cap : int

(** [sat_pow b e] is [b^e] saturating at {!sat_cap}. *)
val sat_pow : int -> int -> int

(** [brute_cost ~nh ~ng ~mg] estimates the backtracking enumeration
    work for [Hom(h, g)]: [ng · nh · d^(nh-1)] with [d] the ceiling
    average degree of [g] — the first pattern vertex ranges over
    [V(G)], each later one over a neighbour list, and every pattern
    vertex costs at least one step per partial map.  The [nh] factor
    keeps sparse targets (where [d] floors to 1) from admitting
    arbitrarily large patterns whose true branching is the target's
    max degree. *)
val brute_cost : nh:int -> ng:int -> mg:int -> int

(** {2 Decisions}

    Each returns what the caller should run and bumps the matching
    [dispatch.chose_*] counter. *)

type hom_choice = Hom_brute | Hom_packed

(** [choose_hom ~nh ~ng ~mg]: engine for one [Hom(h, g)] count:
    [Hom_brute] when {!brute_cost} is within [brute_hom_max], else
    [Hom_packed]. *)
val choose_hom : nh:int -> ng:int -> mg:int -> hom_choice

(** [prune_candidates ~work]: run the arc-consistency fixpoint before
    the packed DP?  [work] is the Σ_bags ng^arity estimate; true when it
    reaches [prune_min_work]. *)
val prune_candidates : work:int -> bool

type ans_choice = Ans_enum | Ans_packed

(** [answer_costs ~nx ~free_edges ~comps ~ng ~mg] is [(kernel, dp)],
    the predicted work of the two answer-counting routes.  [nx] is the
    free-variable count, [free_edges] the edge count of [H[X]], [comps]
    the [(|C|, |δ_C|)] of each quantified component with a non-empty
    attachment, [mg] the edge count of the target.
    - [kernel] is the projection-row kernel's: one sweep over
      [Hom(H[C ∪ δ_C] − x_last, G)] per component,
      [brute_cost ~nh:(|C| + |δ_C| − 1)], plus a join of at most
      [ng^(nx−1)] row ANDs.
    - [dp] counts the packed DP's work units: the [ng^|δ_C|]
      assignments of each component's attachment, each a pinned
      component search, plus [ng^2] per [H[X]] edge and [ng] per
      free variable. *)
val answer_costs :
  nx:int -> free_edges:int -> comps:(int * int) list -> ng:int -> mg:int ->
  int * int

(** [choose_answers ~nx ~free_edges ~comps ~ng ~mg]: engine for one
    [|Ans(q, g)|] count, from {!answer_costs}.  [Ans_enum] (the
    projection-row kernel) when [kernel] is at most [dp] times
    [enum_answers_max] and has not saturated at {!sat_cap}; [Ans_packed]
    otherwise, so the DP keeps the answer sets whose join no estimate
    can bound. *)
val choose_answers :
  nx:int -> free_edges:int -> comps:(int * int) list -> ng:int -> mg:int ->
  ans_choice

(** [dp_domains ~requested ~subtrees ~work ~threshold]: worker-domain
    count for the treewidth DP's root-subtree fan-out.  The engine
    passes the table's [dp_parallel_min] as [threshold]: [0] forces
    the parallel path, [max_int] forces sequential, anything else is
    the minimum [work] for fan-out.  Returns [1] for a sequential
    run. *)
val dp_domains : requested:int -> subtrees:int -> work:int -> threshold:int -> int

(** [wl_domains ~requested ~jobs ~weight ~threshold]: worker-domain
    count for a k-WL round of [jobs] dirty tuples and round weight
    [weight = jobs · max_n · k].  The engine passes the table's
    [wl_parallel_min] as [threshold], with the contract of
    {!dp_domains}; [0] also bypasses the per-domain chunk cap. *)
val wl_domains : requested:int -> jobs:int -> weight:int -> threshold:int -> int

(** [dense_fits ~bits ~cap]: store a packed DP table with a [bits]-wide
    keyspace in the dense flat array?  [cap] is the structural limit of
    the caller's arena pool; the effective width is
    [min cap (calibration ()).dense_key_bits]. *)
val dense_fits : bits:int -> cap:int -> bool

(** {2 Canonical addressing}

    An answer count, a k-WL verdict, a homomorphism count and a
    treewidth are isomorphism invariants, so a cache may answer them
    under a canonical address ([Wlcq_cache.Cache]).  Labelling costs
    search nodes; these functions say how many a request may spend. *)

(** What the caller would compute without an address:
    - [Probe_count costs]: answer counts on one host, {!answer_costs}'s
      pair for each query;
    - [Probe_decide k]: a k-WL verdict on a pair of graphs;
    - [Probe_hom work]: a homomorphism count whose engine is predicted
      at [work] steps ({!brute_cost});
    - [Probe_graph]: a graph-sized search (exact treewidth), priced by
      size alone at [2^n] steps (capped at [2^30]); below the cap, never
      below the [(n+1)²/2] nodes that a graph with the full symmetric
      group needs. *)
type probe =
  | Probe_count of (int * int) list
  | Probe_decide of int
  | Probe_hom of int
  | Probe_graph

(** [address_nodes probe ~n ~m] is the node budget for canonically
    labelling a graph of [n] vertices and [m] edges before computing
    [probe]: its predicted work (counts: the sum over the queries of the
    cheaper engine's, the DP's units weighted by [enum_answers_max];
    k-WL: one round's [k · n^(k+1)]) divided by the cost of one search
    node, [canon_node_steps · (n + m)], less two nodes for the
    labelling's fixed costs.  So a probe that runs out of nodes never
    costs more than the engine it tried to skip.  [0] means compute
    without addressing: always for a 1-WL verdict, whose colour
    refinement is the labeller's own first step; never for k ≥ 2.  No
    counter moves. *)
val address_nodes : probe -> n:int -> m:int -> int

(** [choose_address probe ~n ~m] is {!address_nodes} for a request
    that may be answered from a cache, counted in
    [dispatch.chose_address] (a positive budget) or
    [dispatch.chose_compute] (a declined probe). *)
val choose_address : probe -> n:int -> m:int -> int
