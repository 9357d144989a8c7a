(** Content-addressed caching tier.

    One shared, domain-safe, size-accounted LRU keyed on string content
    addresses.  Addresses come from canonical labelling
    ({!Wlcq_graph.Iso.canonical_form}): isomorphic inputs hash to the
    same address, so a cached decomposition, colouring or hom count is
    found again even when the caller's graph is a nontrivially
    relabelled copy — the permutation returned by {!address} translates
    the cached artifact back to caller vertex ids.

    Invariants:
    - eviction is live-heap-word accounted (LRU order, per-entry cost
      estimated by the store's [words] function plus key overhead);
    - [`Degraded] results are never stored — callers only [add]
      fully-trusted artifacts;
    - all state is guarded by one mutex, so the tier is safe to use
      from spawned domains.

    Counters: [cache.hit], [cache.miss], [cache.eviction],
    [cache.bytes] (signed deltas; reads as the live byte total) and
    [cache.canon_fallback]. *)

(** A typed namespace inside the tier.  Values of different stores
    share one LRU and one capacity. *)
type 'a store

(** [store ~name ~words ()] registers namespace [name].  [words v]
    estimates the live heap words retained by [v] (used for eviction
    accounting; a rough estimate is fine).  Call once, at module
    initialisation — the name also keys warm-start snapshots. *)
val store : name:string -> words:('a -> int) -> unit -> 'a store

(** [enabled ()] is true when the capacity is positive.  Callers should
    check it before computing addresses so a disabled tier costs
    nothing. *)
val enabled : unit -> bool

(** [find st addr] looks up and refreshes (MRU) an entry. *)
val find : 'a store -> string -> 'a option

(** [add st addr v] inserts [v], evicting LRU entries as needed.  An
    entry larger than the whole capacity is not inserted. *)
val add : 'a store -> string -> 'a -> unit

(** [clear ()] drops everything. *)
val clear : unit -> unit

(** [set_capacity_mb mb] sets the capacity (default 256 MB) and evicts
    down to it; [0] disables the tier entirely. *)
val set_capacity_mb : int -> unit

(** [set_capacity_words w] — test hook for eviction-under-pressure
    properties. *)
val set_capacity_words : int -> unit

type stats = { entries : int; words : int; capacity_words : int }

val stats : unit -> stats

(** [canonical_address ?budget ~nodes g] is the canonical content
    address of [g] plus the permutation mapping caller vertex [v] to
    its canonical id, or [None] when the labelling search needs more
    than [nodes] nodes ([nodes <= 0] declines at once) or [budget]
    (polled once per search node) trips.  Relabelled isomorphic copies
    get the same address. *)
val canonical_address :
  ?budget:Wlcq_robust.Budget.t -> nodes:int -> Wlcq_graph.Graph.t ->
  (string * Wlcq_util.Perm.t) option

(** [address ?budget ?nodes g] is {!canonical_address}, falling back to
    [(structural_address g, identity)] when the search runs out of
    [nodes] (default: {!Wlcq_dispatch.Dispatch.address_nodes} prices
    [g] by size, as [Probe_graph]).  The fallback is still a correct
    key, but relabelled isomorphic copies no longer collide
    ([cache.canon_fallback] counts these).
    @raise Wlcq_robust.Budget.Exhausted when [budget] trips during the
    labelling: the address never depends on the budget. *)
val address :
  ?budget:Wlcq_robust.Budget.t -> ?nodes:int -> Wlcq_graph.Graph.t ->
  string * Wlcq_util.Perm.t

(** [find_labelled st ~labelled ~canonical] looks [st] up under the
    as-labelled key [labelled] and then, on a miss, under
    [Lazy.force canonical]: an identical resubmission skips the
    canonical labelling.  Returns the value, copied to [labelled] when
    found under [canonical], and the function that stores a computed
    value under both keys.  The two probes count as one lookup. *)
val find_labelled :
  'a store -> labelled:string -> canonical:string Lazy.t ->
  'a option * ('a -> unit)

(** [structural_address g] is the as-labelled address of [g]: a digest
    of its vertex count and edge list, with no canonical labelling.
    Only identically labelled copies share it.  It is the address
    {!address} falls back to, and costs about a microsecond on a
    pattern-sized graph where canonical labelling costs tens. *)
val structural_address : Wlcq_graph.Graph.t -> string

(** [save_file path] writes a warm-start snapshot of every entry whose
    store is registered; returns the number of entries written. *)
val save_file : string -> (int, string) result

(** [load_file path] replays a snapshot through {!add} (so capacity and
    eviction accounting apply); returns the number of entries loaded.
    Entries for unregistered stores are skipped. *)
val load_file : string -> (int, string) result
