(** Extension width and semantic extension width — the paper's width
    measures (Definitions 11–13) and the [F_ℓ] cloning construction.

    - [Γ(H,X)] adds an edge between free variables [u ≠ v] whenever
      some connected component of [H[Y]] is adjacent to both;
    - [ew(H,X) = tw(Γ(H,X))];
    - [sew(H,X)] is the extension width of the counting core;
    - [F_ℓ(H,X)] clones the quantified part [ℓ] times (Definition 13),
      and [ew(H,X) = max_ℓ tw(F_ℓ(H,X))] (Corollary 18). *)

open Wlcq_graph
module Budget = Wlcq_robust.Budget

(** [quantified_components q] lists the connected components of
    [H[Y]]: each entry is [(members, attached)] where [members] are the
    component's vertices and [attached] the free variables adjacent to
    it in [H] (both sorted). *)
val quantified_components : Cq.t -> (int list * int list) list

(** [gamma_graph q] is [Γ(H, X)] (Definition 11). *)
val gamma_graph : Cq.t -> Graph.t

(** [contract q] is the contract [Γ(H,X)[X]] used by the complexity
    classification (Corollary 4), with vertices relabelled to
    [0 .. |X|-1] in free-variable order. *)
val contract : Cq.t -> Graph.t

(** [exact_tw ~budget g] is [tw(g)] for the exact width measures (here
    and in their knowledge-graph lift): a degraded heuristic bound
    would be a wrong width, so a tripped [budget] raises instead.
    @raise Budget.Exhausted when [budget] trips. *)
val exact_tw : budget:Budget.t -> Graph.t -> int

(** [extension_width q] is [ew(H, X) = tw(Γ(H, X))].  The exact width
    measures reject degraded treewidth bounds: when [budget] trips the
    treewidth search, this {e raises} rather than returning a wrong
    width.
    @raise Budget.Exhausted when [budget] trips. *)
val extension_width : ?budget:Budget.t -> Cq.t -> int

(** [semantic_extension_width q] is [sew(H, X)]: the extension width of
    the counting core (Definition 12).
    @raise Budget.Exhausted when [budget] trips (in the endomorphism
    search or either treewidth computation). *)
val semantic_extension_width : ?budget:Budget.t -> Cq.t -> int

(** [extension_width_upper_bound q] is a certified upper bound on
    [ew(H, X)] — hence on [sew(H, X)], since the core is a retract —
    from the polynomial {!Wlcq_treewidth.Heuristics} bracket.  The
    [`Exhausted] rung of [Wl_dimension.dimension_budgeted] is built on
    this. *)
val extension_width_upper_bound : Cq.t -> int

(** [quantified_star_size q] is the Durand–Mengel star-size invariant:
    the maximum, over connected components [C] of [H[Y]], of the number
    of free variables adjacent to [C] ([0] for full queries). *)
val quantified_star_size : Cq.t -> int

(** The [ℓ]-copy graph [F_ℓ(H, X)] together with the homomorphism
    [γ : F_ℓ → H] of Definition 14 and the copy structure needed by
    the CFI experiments. *)
type f_ell = {
  graph : Graph.t;  (** [F_ℓ(H, X)] *)
  gamma : int array;  (** γ: vertex of [F_ℓ] → variable of [H] *)
  copy : int array;  (** copy index: [0] for free variables, [1..ℓ]
                         for clones of quantified variables *)
  ell : int;
}

(** [f_ell q ell] is [F_ℓ(H, X)].
    @raise Invalid_argument when [ell < 1]. *)
val f_ell : Cq.t -> int -> f_ell

(** [gamma_is_homomorphism fe q] checks Observation 15. *)
val gamma_is_homomorphism : f_ell -> Cq.t -> bool

(** [ew_via_f_ell q ~max_ell] is [max { tw(F_ℓ) | 1 ≤ ℓ ≤ max_ell }] —
    equals [ew q] for large enough [max_ell] (Corollary 18). *)
val ew_via_f_ell : Cq.t -> max_ell:int -> int

(** [minimal_saturating_ell q] is the least [ℓ] with
    [tw(F_ℓ(H,X)) = ew(H,X)] (the witness constructions want the
    smallest, and odd, such [ℓ]).
    @raise Budget.Exhausted when [budget] trips. *)
val minimal_saturating_ell : ?budget:Budget.t -> Cq.t -> int
