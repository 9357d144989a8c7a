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

(** [address g] is the content address of [g] plus the permutation
    mapping caller vertex [v] to its canonical id.  Canonicalisation is
    fronted by a bounded structural memo, so resubmitting the same
    as-labelled graph is cheap.  When the individualization–refinement
    search exceeds its node budget (CFI-style refinement-homogeneous
    inputs) the address degrades to a structural digest with the
    identity permutation: still correct, but relabelled isomorphic
    copies no longer collide ([cache.canon_fallback] counts these). *)
val address : Wlcq_graph.Graph.t -> string * Wlcq_util.Perm.t

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
