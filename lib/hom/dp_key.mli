(** Flat sparse DP tables keyed by packed bag assignments.

    The table machinery of {!Td_count}'s DP loop (which
    [Wlcq_core.Fast_count] runs too) and of the test-only nice DP.  A
    bag assignment — an [int array] of target vertices, one per
    (sorted) bag vertex — packs little-endian into a single immediate
    int whenever [arity * ceil(log2 n) <= 62] (the base-n encoding of
    the k-WL engine); restriction onto a subset of positions is then
    shift-and-mask with no allocation.  Larger bags fall back to
    [int array]-keyed hashtables with structural per-element equality,
    so results never depend on hash quality. *)

module Count = Wlcq_util.Count

type codec = { bits : int; mask : int }

(** [codec ~n] fixes the field width for target graphs on [n] vertices:
    [bits = max 1 (ceil (log2 n))]. *)
val codec : n:int -> codec

(** [packs c ~arity] — does an [arity]-vertex bag pack into one int? *)
val packs : codec -> arity:int -> bool

(** [pack c img] is the little-endian packed key of assignment [img].
    Requires [packs c ~arity:(Array.length img)]. *)
val pack : codec -> int array -> int

(** [unpack c key ~arity dst] writes the [arity] coordinates of [key]
    into [dst.(0..arity-1)]. *)
val unpack : codec -> int -> arity:int -> int array -> unit

(** [restrict_packed c key pos] is the packed key of the restriction of
    [key] onto positions [pos] — pure shift-and-mask. *)
val restrict_packed : codec -> int -> int array -> int

(** Dense payload: a flat unboxed int array indexed by the packed key
    itself ([0] = absent, positive = int63-fast-path count, [-1] =
    promoted into the [big] side table), plus the spine of occupied
    keys (reverse insertion order) so iteration and projection cost
    O(entries) rather than O(keyspace).  The hot array holds no
    pointers, so the GC never scans it. *)
type dense = {
  data : int array;
  mutable keys : int list;
  mutable n_keys : int;  (* O(1) population, [List.length keys] *)
  mutable big : Count.t Wlcq_util.Ordering.Int_tbl.t option;
}

(** A DP table in dense, packed-sparse, or hashed key mode.  [Dense]
    is used whenever the whole keyspace has at most [2^16] entries,
    making bump and lookup single array accesses. *)
type table =
  | Dense of dense
  | Packed of Count.t Wlcq_util.Ordering.Int_tbl.t
  | Hashed of Count.t Wlcq_util.Ordering.Int_array_tbl.t

(** [table c ~arity] creates an empty table in the mode dictated by
    [packs c ~arity] and the keyspace size. *)
val table : codec -> arity:int -> table

val is_packed : table -> bool
val length : table -> int

(** [bump c tbl images v] adds [v] to the entry for assignment
    [images] (inserting if absent).  [images] may be a reused scratch
    array — the hashed mode copies it on fresh inserts. *)
val bump : codec -> table -> int array -> Count.t -> unit

(** [find c tbl images pos] looks up the restriction of [images] onto
    positions [pos]; absent entries count as zero. *)
val find : codec -> table -> int array -> int array -> Count.t

(** [project c tbl pos] groups [tbl] by restriction onto positions
    [pos] (within the table's own bag), summing counts.  A hashed
    table's projection may come back packed when its arity allows. *)
val project : codec -> table -> int array -> table

(** [iter_values f tbl] applies [f] to every stored count (used for
    the promotion metrics flush). *)
val iter_values : (Count.t -> unit) -> table -> unit

(** [count_big tbl] is the number of stored counts that have left the
    int63 fast path.  O(1) on dense tables; one unboxed traversal on
    the others — cheap enough for armed-observability metric flushes. *)
val count_big : table -> int

(** [iter_decoded c tbl ~arity scratch f] calls [f scratch v] for every
    entry with the key decoded into [scratch] (length >= [arity]).
    [f] must not retain or mutate [scratch]. *)
val iter_decoded :
  codec -> table -> arity:int -> int array -> (int array -> Count.t -> unit) -> unit

(** [total tbl] sums all stored counts. *)
val total : table -> Count.t

(** [release tbl] recycles a dense table's backing array into a
    domain-local pool (clearing it in O(entries)); no-op on the other
    modes.  [tbl] must not be used afterwards, and must not be
    released twice.  Fresh dense keyspaces are major-heap allocations
    whose GC cost dominates small DP runs — engines should release
    every table they create once its counts have been consumed. *)
val release : table -> unit
