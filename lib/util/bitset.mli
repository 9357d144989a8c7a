(** Packed bitsets over the universe [0 .. capacity-1].

    A bitset is backed by an [int array] with 62 usable bits per word.
    Mutating operations ([set], [clear]) are provided for construction;
    all set-algebra operations ([union], [inter], [diff], ...) are
    functional and return fresh bitsets.  Two bitsets may only be
    combined when they have the same capacity. *)

type t

(** Members per backing word: member [i] is bit [i mod bits_per_word]
    of word [i / bits_per_word].  Code that keeps its own flat word
    arrays uses the same layout. *)
val bits_per_word : int

(** [popcount w] is the number of set bits of one backing word
    ([0 <= w < 2^bits_per_word]). *)
val popcount : int -> int

(** [create n] is the empty set over universe [0 .. n-1]. *)
val create : int -> t

(** [capacity s] is the size of the universe of [s]. *)
val capacity : t -> int

(** [copy s] is a fresh bitset equal to [s]. *)
val copy : t -> t

(** [mem s i] tests membership.  Raises [Invalid_argument] when [i] is
    outside the universe. *)
val mem : t -> int -> bool

(** [set s i] adds [i] to [s] in place. *)
val set : t -> int -> unit

(** [clear s i] removes [i] from [s] in place. *)
val clear : t -> int -> unit

(** [add s i] is a fresh copy of [s] with [i] added. *)
val add : t -> int -> t

(** [remove s i] is a fresh copy of [s] with [i] removed. *)
val remove : t -> int -> t

(** [singleton n i] is [{i}] over universe [0 .. n-1]. *)
val singleton : int -> int -> t

(** [full n] is the whole universe [0 .. n-1]. *)
val full : int -> t

(** [of_list n xs] is the set of elements of [xs] over [0 .. n-1]. *)
val of_list : int -> int list -> t

(** [to_list s] lists the members of [s] in increasing order. *)
val to_list : t -> int list

(** [cardinal s] is the number of members of [s]. *)
val cardinal : t -> int

(** [is_empty s] tests emptiness. *)
val is_empty : t -> bool

val union : t -> t -> t
val inter : t -> t -> t

(** [diff a b] is [a \ b]. *)
val diff : t -> t -> t

(** [symdiff a b] is the symmetric difference [a ⊕ b]. *)
val symdiff : t -> t -> t

(** [complement s] is the universe minus [s]. *)
val complement : t -> t

(** [subset a b] tests [a ⊆ b]. *)
val subset : t -> t -> bool

(** [disjoint a b] tests [a ∩ b = ∅]. *)
val disjoint : t -> t -> bool

val equal : t -> t -> bool

(** Total order compatible with [equal]; lexicographic on words. *)
val compare : t -> t -> int

(** [iter f s] applies [f] to every member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [for_all p s] tests whether all members satisfy [p]. *)
val for_all : (int -> bool) -> t -> bool

(** [exists p s] tests whether some member satisfies [p]. *)
val exists : (int -> bool) -> t -> bool

(** [choose s] is the smallest member of [s].
    @raise Not_found when [s] is empty. *)
val choose : t -> int

(** [pp] prints as [{1, 4, 7}]. *)
val pp : Format.formatter -> t -> unit

(** [hash s] is a hash compatible with [equal]. *)
val hash : t -> int
