(** Homomorphisms between knowledge graphs.

    A homomorphism must preserve every labelled directed edge
    ([u -l-> v] implies [h(u) -l-> h(v)]) and respect vertex labels in
    the {e label-refining} sense: a source vertex with the default
    label [0] is a wildcard (a query variable without a unary atom is
    unconstrained), while any other label must be matched exactly.
    This composes: the counting-core retractions of {!Kcq} rely on
    [g ∘ φ] being a homomorphism whenever [φ] and [g] are.  Mirrors
    {!Wlcq_hom.Brute} (pins and candidates included). *)

(** [iter ?budget ?pins ?candidates h g f] applies [f] to every
    homomorphism from [h] to [g]; the array is reused between calls.
    [pins] prescribes the images of selected [h]-vertices, and
    [candidates u] restricts the image of [u] to a set of [g]-vertices
    (a pin outside it admits no homomorphism); {!Kcq}'s counting core
    passes [V(h) − y] to every vertex.  [budget] is ticked once per
    search node.
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips. *)
val iter :
  ?budget:Wlcq_robust.Budget.t ->
  ?pins:(int * int) list ->
  ?candidates:(int -> Wlcq_util.Bitset.t) ->
  Kgraph.t ->
  Kgraph.t ->
  (int array -> unit) ->
  unit

val count : ?pins:(int * int) list -> Kgraph.t -> Kgraph.t -> int

val exists :
  ?budget:Wlcq_robust.Budget.t ->
  ?pins:(int * int) list ->
  Kgraph.t ->
  Kgraph.t ->
  bool

(** [is_homomorphism h g map] checks labels and labelled edges. *)
val is_homomorphism : Kgraph.t -> Kgraph.t -> int array -> bool
