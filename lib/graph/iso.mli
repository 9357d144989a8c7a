(** Graph isomorphism and automorphisms.

    The paper needs isomorphism in several places: Lemma 26's parity
    criterion ([χ(G,W) ≅ χ(G,W')] iff [|W| ≡ |W'| mod 2]), query
    isomorphism (Definition 9's counting-minimal representatives are
    unique up to isomorphism), and the partial automorphisms
    [Aut(H,X)] of Definition 42.

    Every function here runs on one individualisation–refinement
    search with automorphism pruning (McKay–Piperno, {e Practical graph
    isomorphism II}, 2014): flat ordered partitions, equitable
    refinement by a splitter queue, a trace per level, the first
    non-singleton cell as target, and orbit pruning under the
    automorphisms found as equal leaves.  Isomorphism compares two
    canonical forms. *)

(** [find_isomorphism g1 g2] is [Some p] with [p] mapping vertices of
    [g1] to vertices of [g2] such that [p] is an isomorphism, or
    [None]. *)
val find_isomorphism : Graph.t -> Graph.t -> Wlcq_util.Perm.t option

(** [isomorphic ?budget g1 g2] tests isomorphism.  [budget] is ticked
    once per search node.
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips. *)
val isomorphic : ?budget:Wlcq_robust.Budget.t -> Graph.t -> Graph.t -> bool

(** [automorphisms g] lists all automorphisms of [g] in lexicographic
    order: the group generated by the automorphisms the search finds,
    closed breadth-first (intended for small groups — query graphs,
    not data graphs). *)
val automorphisms : Graph.t -> Wlcq_util.Perm.t list

(** [find_isomorphism_fixing g1 g2 pins] finds an isomorphism subject
    to prescribed images: each pair [(u, v)] in [pins] forces
    [p.(u) = v]. *)
val find_isomorphism_fixing :
  Graph.t -> Graph.t -> (int * int) list -> Wlcq_util.Perm.t option

(** [find_isomorphism_respecting g1 init1 g2 init2] finds an
    isomorphism [p] that maps colour classes onto colour classes:
    [init2.(p.(v)) = init1.(v)] for every [v].  Used for
    conjunctive-query isomorphism (free variables must map to free
    variables, Definition 9). *)
val find_isomorphism_respecting :
  Graph.t -> int array -> Graph.t -> int array -> Wlcq_util.Perm.t option

(** [refine g init] runs colour refinement (1-WL) on [g] starting from
    the initial colouring [init] (any int labels) and returns the
    stable colouring with colours normalised to [0 .. c-1] in a
    canonical order (the cell order of the search's partition, which
    refines the order of the initial colours), together with [c].  Two
    graphs refined with matching initial colourings get comparable
    colour ids, so histograms can be compared across graphs when run
    through {!refine_pair}.
    @raise Invalid_argument when [init] has the wrong length. *)
val refine : Graph.t -> int array -> int array * int

(** [refine_pair g1 init1 g2 init2] refines both graphs in the same
    colour namespace (one refinement of their disjoint union) and
    returns [(colours1, colours2, c)]. *)
val refine_pair :
  Graph.t -> int array -> Graph.t -> int array -> int array * int array * int

(** A canonical labelling of a graph: the canonically relabelled graph
    itself, the renaming permutation (original vertex [v] has canonical
    id [perm.(v)]), and a stable hex digest of the canonical encoding.
    Two isomorphic graphs (refined with corresponding initial
    colourings) produce [Graph.equal] canonical graphs and identical
    digests — the foundation of content-addressed caching: isomorphic
    inputs are the same key (Definition 9's counting-minimal
    representatives are unique up to isomorphism). *)
type canonical = {
  canon : Graph.t;
  perm : Wlcq_util.Perm.t;
  digest : string;
}

(** Raised by {!canonical_form} and {!canonical_digest} when the
    individualisation–refinement search exceeds its node budget
    (refinement-homogeneous inputs such as CFI gadgets can force an
    exponential tree). *)
exception Canonical_limit

(** [canonical_form ?init ?limit g] computes a canonical labelling: the
    search's least leaf, ranked by its trace sequence and then by its
    canonical adjacency words.  [init] seeds the first partition
    (default: uniform), and the canonical form respects it: two
    coloured graphs get the same digest exactly when an isomorphism
    maps every vertex to one of the same colour value (so a uniform
    colouring by 0 and one by 1 get different digests).  [limit] (default:
    unbounded) caps the number of visited search nodes, and [budget]
    is ticked once per node;
    @raise Canonical_limit when [limit] is exceeded or [budget] trips. *)
val canonical_form :
  ?budget:Wlcq_robust.Budget.t -> ?init:int array -> ?limit:int -> Graph.t ->
  canonical

(** [canonical_digest ?budget ?limit g] is [(digest, perm)] of
    [canonical_form ?limit g] without building the canonical graph:
    what a content address needs.  [budget] is ticked once per search
    node; its trip, like running out of [limit], raises
    [Canonical_limit], so the digest itself never depends on it.
    @raise Canonical_limit as {!canonical_form}, or when [budget]
    trips. *)
val canonical_digest :
  ?budget:Wlcq_robust.Budget.t -> ?limit:int -> Graph.t ->
  string * Wlcq_util.Perm.t
