(** Undirected simple graphs on vertex set [0 .. n-1].

    All graphs in the paper are undirected, without self-loops and
    without parallel edges (Section 2); the constructors here enforce
    both invariants.  The representation is an immutable bitset
    adjacency array, so adjacency tests are O(1) and neighbourhood
    iteration is cache-friendly — k-WL and CFI construction iterate
    neighbourhoods heavily. *)

type t

(** [create n edges] builds a graph with [n] vertices.  Edges are given
    as pairs; duplicates and orientation are normalised away.
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)
val create : int -> (int * int) list -> t

(** [init n fill] builds a graph with [n] vertices from the edges that
    [fill] passes to the [add u v] it is given, without an intermediate
    edge list.  [add] makes {!create}'s checks, with its messages, in
    the order the edges come; it must not be called after [fill]
    returns.
    @raise Invalid_argument on a negative [n] (before [fill] runs), a
    self-loop or an out-of-range endpoint. *)
val init : int -> ((int -> int -> unit) -> unit) -> t

(** [empty n] has [n] vertices and no edges. *)
val empty : int -> t

(** [num_vertices g] is [n]. *)
val num_vertices : t -> int

(** [num_edges g] is the number of edges. *)
val num_edges : t -> int

(** [adjacent g u v] tests whether [{u,v}] is an edge. *)
val adjacent : t -> int -> int -> bool

(** [degree g v] is the degree of [v]. *)
val degree : t -> int -> int

(** [neighbours g v] is a fresh bitset of the neighbours of [v]. *)
val neighbours : t -> int -> Wlcq_util.Bitset.t

(** [neighbours_list g v] lists the neighbours of [v] in increasing
    order. *)
val neighbours_list : t -> int -> int list

(** [iter_neighbours g v f] applies [f] to each neighbour of [v] in
    increasing order, without allocating. *)
val iter_neighbours : t -> int -> (int -> unit) -> unit

(** [fold_neighbours g v f init] folds over the neighbours of [v]. *)
val fold_neighbours : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a

(** [adjacency_words ?spare_rows g] is the adjacency of [g] as flat
    words: row [v] is the [nw = ⌈n / bits_per_word⌉] words starting at
    [v * nw], in {!Wlcq_util.Bitset}'s word layout, followed by
    [spare_rows] zeroed rows of the same width for the caller's own
    use.  For loops over many rows that AND, OR and popcount words
    without allocating. *)
val adjacency_words : ?spare_rows:int -> t -> int array

(** [edges g] lists edges as pairs [(u, v)] with [u < v], sorted. *)
val edges : t -> (int * int) list

(** [iter_edges g f] applies [f u v] to every edge with [u < v]. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [vertices g] is [[0; ...; n-1]]. *)
val vertices : t -> int list

(** [equal g1 g2] is equality of labelled graphs (same [n], same edge
    set) — not isomorphism; see {!Iso.isomorphic} for that. *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with {!equal} (vertex count,
    then adjacency rows lexicographically).  Use this — never the
    polymorphic [Stdlib.compare] — when graphs key ordered
    collections. *)
val compare : t -> t -> int

(** [hash] is compatible with {!equal}; use it (with {!equal}) to build
    [Hashtbl.Make]-style keyed tables on graphs. *)
val hash : t -> int

(** [degree_sequence g] is the sorted (descending) degree sequence. *)
val degree_sequence : t -> int list

(** [max_degree g] is the maximum degree ([0] for the empty graph). *)
val max_degree : t -> int

(** [pp] prints as [graph(n=4, edges=[(0,1); (1,2)])]. *)
val pp : Format.formatter -> t -> unit

(** [to_string g] is [Format.asprintf "%a" pp g]. *)
val to_string : t -> string
