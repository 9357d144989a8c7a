(** Counting minimisation (Definition 9, Lemma 44).

    Two queries are counting equivalent when they have the same number
    of answers in every graph; each equivalence class has a unique (up
    to isomorphism) minimal representative, the {e counting core}.

    [(H, X)] is counting minimal when no endomorphism maps [X]
    bijectively onto [X] with a proper image.  One exists exactly when
    an endomorphism fixes [X] pointwise and misses a quantified vertex
    [y]: a power of the first (the order of the permutation it induces
    on [X]) is the second, since powering only shrinks the image.  So
    minimality is one pinned existence search per [y] — [X] pinned to
    itself, every vertex mapped into [V(H) − y] — the core-by-retraction
    algorithm (Hell–Nešetřil) with [X] pinned.  The core is the
    subgraph induced on the image of the first map found, taken
    recursively; it has the same answers in every graph.  Full queries
    ([X = V(H)]) leave nothing to search, so they are always minimal
    (Section 5). *)

module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget

(** [retraction ~free search] runs [search ~pins ~candidates f] once per
    vertex [y] outside [free], in increasing order: [pins] sends every
    member of [free] to itself and [candidates] gives every vertex
    [V − y], where [V] is [free]'s universe.  [search] applies [f] to
    each endomorphism it finds, as {!Wlcq_hom.Brute.iter} does.  The
    result is a copy of the first one found, which fixes [free]
    pointwise and misses [y].  [budget] is polled once per [y].
    @raise Budget.Exhausted when [budget] trips. *)
val retraction :
  ?budget:Budget.t ->
  free:Bitset.t ->
  (pins:(int * int) list -> candidates:(int -> Bitset.t) ->
   (int array -> unit) -> unit) ->
  int array option

(** [counting_core q] is the counting-minimal representative of [q]'s
    counting-equivalence class (free variables keep their relative
    order; vertex labels are compacted).  The searches run on
    {!Wlcq_hom.Brute.iter} under [budget].
    @raise Budget.Exhausted when [budget] trips mid-search. *)
val counting_core : ?budget:Budget.t -> Cq.t -> Cq.t

(** [is_counting_minimal q] holds when no proper shrinking
    endomorphism exists. *)
val is_counting_minimal : Cq.t -> bool

(** [shrinking_endomorphism q] is a witness endomorphism (as an array
    over [V(H)]) that fixes [X] pointwise and has a proper image, if
    one exists.
    @raise Budget.Exhausted when [budget] trips mid-search. *)
val shrinking_endomorphism : ?budget:Budget.t -> Cq.t -> int array option
