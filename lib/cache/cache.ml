(* Content-addressed caching tier.

   One shared, domain-safe, size-accounted LRU over string content
   addresses.  Keys are canonical-form digests (Iso.canonical_form)
   when the priced search cracks the input, so isomorphic inputs are
   the same key — counting-minimal representatives are unique up to
   isomorphism (Definition 9) and every artifact cached here
   (decompositions, colourings, hom counts) is isomorphism-invariant up
   to the permutation returned alongside the address.  Inputs past the
   node budget get a structural as-labelled digest: coarser (relabelled
   copies miss) but equally sound and cheap.

   This module is the single sanctioned home for module-level memo state
   in lib/ (lint rule R10 bans ad-hoc memo tables elsewhere); everything
   below is guarded by [lock]. *)

module Obs = Wlcq_obs.Obs
module Graph = Wlcq_graph.Graph
module Iso = Wlcq_graph.Iso
module Perm = Wlcq_util.Perm
module Dispatch = Wlcq_dispatch.Dispatch
module Budget = Wlcq_robust.Budget

let word_bytes = Sys.word_size / 8
let words_per_mb = 1024 * 1024 / word_bytes

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let m_hit = Obs.counter "cache.hit"
let m_miss = Obs.counter "cache.miss"
let m_eviction = Obs.counter "cache.eviction"

(* gauge in spirit: tracks the live byte total via signed deltas *)
let m_bytes = Obs.counter "cache.bytes"
let m_canon_fallback = Obs.counter "cache.canon_fallback"

(* ------------------------------------------------------------------ *)
(* LRU machinery                                                       *)
(* ------------------------------------------------------------------ *)

type packed = ..
type packed += Nil

(* Intrusive doubly-linked list node; [sentinel.next] is the MRU end,
   [sentinel.prev] the LRU end. *)
type node = {
  nd_key : string;
  nd_value : packed;
  nd_cost : int;  (* estimated live heap words, entry overhead included *)
  (* lint: domain-local list links are only rewired under [lock] *)
  mutable nd_prev : node;
  (* lint: domain-local same ownership as [nd_prev] *)
  mutable nd_next : node;
}

let rec sentinel =
  { nd_key = ""; nd_value = Nil; nd_cost = 0; nd_prev = sentinel;
    nd_next = sentinel }

let lock = Mutex.create ()

(* lint: domain-local guarded by [lock] *)
let table : (string, node) Hashtbl.t = Hashtbl.create 16

(* lint: domain-local guarded by [lock]; plain int reads cannot tear *)
let total_words = ref 0

(* lint: domain-local guarded by [lock]; plain int reads cannot tear *)
let capacity = ref (256 * words_per_mb)

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let enabled () = !capacity > 0

let unlink nd =
  nd.nd_prev.nd_next <- nd.nd_next;
  nd.nd_next.nd_prev <- nd.nd_prev

let push_front nd =
  nd.nd_next <- sentinel.nd_next;
  nd.nd_prev <- sentinel;
  sentinel.nd_next.nd_prev <- nd;
  sentinel.nd_next <- nd

(* caller holds [lock] *)
let drop nd =
  unlink nd;
  Hashtbl.remove table nd.nd_key;
  total_words := !total_words - nd.nd_cost;
  Obs.add m_bytes (-(nd.nd_cost * word_bytes))

(* caller holds [lock] *)
let evict_until_fit () =
  while !total_words > !capacity && sentinel.nd_prev != sentinel do
    drop sentinel.nd_prev;
    Obs.incr m_eviction
  done

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)
(* ------------------------------------------------------------------ *)

type 'a store = {
  s_name : string;
  s_words : 'a -> int;
  s_inject : 'a -> packed;
  s_project : packed -> 'a option;
  s_marshal : 'a -> string;
  s_unmarshal : string -> 'a;
}

type any_store = Any : 'a store -> any_store

(* lint: domain-local guarded by [lock]; populated at module init *)
let registry : (string, any_store) Hashtbl.t = Hashtbl.create 16

let store (type a) ~name ~(words : a -> int) () : a store =
  let module M = struct
    type packed += V of a
  end in
  let s =
    {
      s_name = name;
      s_words = words;
      s_inject = (fun v -> M.V v);
      s_project = (function M.V v -> Some v | _ -> None);
      s_marshal = (fun (v : a) -> Marshal.to_string v []);
      s_unmarshal = (fun str -> (Marshal.from_string str 0 : a));
    }
  in
  with_lock (fun () -> Hashtbl.replace registry name (Any s));
  s

let full_key st addr = st.s_name ^ "\x00" ^ addr

(* hashtable slot + node record + key string, in words *)
let entry_overhead key = 16 + ((String.length key + word_bytes - 1) / word_bytes)

(* [~count_miss:false] is for the first probe of a lookup that tries a
   second key next, so that one lookup counts once *)
let find_counting ~count_miss st addr =
  if not (enabled ()) then None
  else
    with_lock (fun () ->
        match Hashtbl.find_opt table (full_key st addr) with
        | None ->
          if count_miss then Obs.incr m_miss;
          None
        | Some nd ->
          (match st.s_project nd.nd_value with
           | None ->
             if count_miss then Obs.incr m_miss;
             None
           | Some v ->
             Obs.incr m_hit;
             unlink nd;
             push_front nd;
             Some v))

let find st addr = find_counting ~count_miss:true st addr

let add st addr v =
  if enabled () then
    with_lock (fun () ->
        let key = full_key st addr in
        (match Hashtbl.find_opt table key with
         | Some old -> drop old
         | None -> ());
        let cost = st.s_words v + entry_overhead key in
        if cost <= !capacity then begin
          let nd =
            { nd_key = key; nd_value = st.s_inject v; nd_cost = cost;
              nd_prev = sentinel; nd_next = sentinel }
          in
          Hashtbl.replace table key nd;
          push_front nd;
          total_words := !total_words + cost;
          Obs.add m_bytes (cost * word_bytes);
          evict_until_fit ()
        end)

let clear () =
  with_lock (fun () ->
      while sentinel.nd_prev != sentinel do
        drop sentinel.nd_prev
      done)

let set_capacity_words w =
  with_lock (fun () ->
      capacity := max 0 w;
      evict_until_fit ())

let set_capacity_mb mb = set_capacity_words (mb * words_per_mb)

type stats = { entries : int; words : int; capacity_words : int }

let stats () =
  with_lock (fun () ->
      { entries = Hashtbl.length table; words = !total_words;
        capacity_words = !capacity })

(* ------------------------------------------------------------------ *)
(* Content addresses                                                   *)
(* ------------------------------------------------------------------ *)

(* The as-labelled address: a digest of the vertex count and the edge
   list, four bytes per number, so it costs one pass over the edges
   and one MD5 — about 1.4 µs on a 10-vertex graph. *)
let structural_address g =
  let buf = Buffer.create (20 + (8 * Graph.num_edges g)) in
  Buffer.add_string buf "wlcq-struct-v2;";
  Buffer.add_int32_le buf (Int32.of_int (Graph.num_vertices g));
  Graph.iter_edges g (fun u v ->
      Buffer.add_int32_le buf (Int32.of_int u);
      Buffer.add_int32_le buf (Int32.of_int v));
  "S:" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

let canonical_address ?budget ~nodes g =
  if nodes <= 0 then None
  else
    match Iso.canonical_digest ?budget ~limit:nodes g with
    | d, perm -> Some ("C:" ^ d, perm)
    | exception Iso.Canonical_limit -> None

(* The default node budget prices the graph by size, as a graph-sized
   search would be.  A budget trip raises rather than falling back, so
   which address a graph gets never depends on the budget. *)
let address ?(budget = Budget.unlimited) ?nodes g =
  let nodes =
    match nodes with
    | Some k -> k
    | None ->
      Dispatch.address_nodes Dispatch.Probe_graph ~n:(Graph.num_vertices g)
        ~m:(Graph.num_edges g)
  in
  match canonical_address ~budget ~nodes g with
  | Some r -> r
  | None ->
    Budget.check budget;
    Obs.incr m_canon_fallback;
    (structural_address g, Perm.identity (Graph.num_vertices g))

(* The as-labelled key first: an identical resubmission hits it for an
   edge-list digest, and only a relabelled one pays for the canonical
   key.  A value found under the canonical key is copied to the
   as-labelled one, and [store] puts a computed one under both. *)
let find_labelled st ~labelled ~canonical =
  match find_counting ~count_miss:false st labelled with
  | Some v -> (Some v, ignore)
  | None -> (
    let key = Lazy.force canonical in
    let store v =
      add st key v;
      if not (String.equal key labelled) then add st labelled v
    in
    match find st key with
    | Some v ->
      store v;
      (Some v, ignore)
    | None -> (None, store))

(* ------------------------------------------------------------------ *)
(* Warm-start snapshots                                                *)
(* ------------------------------------------------------------------ *)

let snapshot_magic = "WLCQCACHE1\n"

let save_file path =
  let payload =
    with_lock (fun () ->
        (* walk LRU -> MRU so replaying [add]s on load restores
           recency order *)
        let acc = ref [] in
        let nd = ref sentinel.nd_prev in
        while !nd != sentinel do
          let k = !nd.nd_key in
          (match String.index_opt k '\x00' with
           | None -> ()
           | Some i ->
             let name = String.sub k 0 i in
             let addr = String.sub k (i + 1) (String.length k - i - 1) in
             (match Hashtbl.find_opt registry name with
              | None -> ()
              | Some (Any st) ->
                (match st.s_project !nd.nd_value with
                 | None -> ()
                 | Some v -> acc := (name, addr, st.s_marshal v) :: !acc)));
          nd := !nd.nd_prev
        done;
        List.rev !acc)
  in
  try
    let oc = open_out_bin path in
    output_string oc snapshot_magic;
    Marshal.to_channel oc (payload : (string * string * string) list) [];
    close_out oc;
    Ok (List.length payload)
  with Sys_error msg -> Error msg

let load_file path =
  try
    let ic = open_in_bin path in
    let finally () = close_in_noerr ic in
    (try
       let mlen = String.length snapshot_magic in
       let hdr = really_input_string ic mlen in
       if not (String.equal hdr snapshot_magic) then begin
         finally ();
         Error (path ^ ": not a wlcq cache snapshot")
       end
       else begin
         let payload =
           (Marshal.from_channel ic : (string * string * string) list)
         in
         finally ();
         let loaded = ref 0 in
         List.iter
           (fun (name, addr, bytes) ->
              match with_lock (fun () -> Hashtbl.find_opt registry name) with
              | None -> ()
              | Some (Any st) ->
                add st addr (st.s_unmarshal bytes);
                incr loaded)
           payload;
         Ok !loaded
       end
     with
     | End_of_file | Failure _ ->
       finally ();
       Error (path ^ ": truncated or corrupt cache snapshot"))
  with Sys_error msg -> Error msg
