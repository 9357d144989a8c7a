(** The elimination core shared by {!Exact}, {!Heuristics} and
    {!Elimination}: a graph under vertex elimination, held as flat
    words.

    One [int array] holds every vertex's adjacency row, [nw] words
    each in {!Wlcq_util.Bitset}'s word layout, followed by the [nw]
    words of the live set.  Degrees are popcounts, fill-in is a
    word-wise OR and the simplicial test a word-wise subset check, so
    a branch-and-bound child gets its state from one copy. *)

type t = private {
  n : int;  (** vertices, live or eliminated *)
  nw : int;  (** words per row: [⌈n / bits_per_word⌉] *)
  words : int array;  (** [n] rows, then the live set *)
}

(** [of_graph g] is [g] with every vertex live. *)
val of_graph : Wlcq_graph.Graph.t -> t

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

val is_live : t -> int -> bool

(** [degree s v] is the number of live neighbours of [v]. *)
val degree : t -> int -> int

(** [fill_count s v] is the number of fill edges eliminating [v] would
    add: pairs of live neighbours of [v] that are not adjacent. *)
val fill_count : t -> int -> int

(** [is_simplicial s v] holds when the live neighbours of [v] form a
    clique. *)
val is_simplicial : t -> int -> bool

(** [eliminate s v] joins the live neighbours of [v] into a clique and
    removes [v] from the live set, in place. *)
val eliminate : t -> int -> unit

(** [contract s v w] merges [v] into its live neighbour [w] ([w] takes
    over [v]'s live neighbours) and removes [v], in place. *)
val contract : t -> int -> int -> unit

(** [kill s v] removes [v] from the live set, in place. *)
val kill : t -> int -> unit

(** [fold_live_neighbours f s v acc] folds over the live neighbours of
    [v] in increasing order. *)
val fold_live_neighbours : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

(** [fold_live f s acc] folds over the live vertices in increasing
    order. *)
val fold_live : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [live_list s] lists the live vertices in increasing order. *)
val live_list : t -> int list

(** [live_words s] is a fresh copy of the live set's words: the
    eliminated set's complement, for use as a memo key. *)
val live_words : t -> int array
