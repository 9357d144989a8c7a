open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

let m_solves = Obs.counter "tw.solves"
let m_nodes = Obs.counter "tw.search_nodes"
let m_pruned = Obs.counter "tw.pruned"
let m_heuristic_fallbacks = Obs.counter "robust.fallback.tw_heuristic"

module E = Elim_state
module Words_tbl = Wlcq_util.Ordering.Int_array_tbl

(* ------------------------------------------------------------------ *)
(* Branch and bound over elimination orders.                           *)
(* ------------------------------------------------------------------ *)

(* Search for an order of width < best.  Each child gets its own copy
   of the flat state; the memo maps the eliminated set (keyed by its
   complement, the live words) to the smallest running maximum with
   which it has been reached. *)
let branch_and_bound ~budget g initial_ub initial_order =
  let best = ref initial_ub in
  let best_order = ref initial_order in
  let memo : int Words_tbl.t = Words_tbl.create 1024 in
  (* search statistics, accumulated locally and flushed once *)
  let nodes_visited = ref 0 in
  let pruned = ref 0 in
  let rec go s prefix current_max remaining =
    (* a full poll per node, not one per tick interval: a node copies
       the state and scans for simplicial vertices, so the clock read
       is noise, while 1024 nodes can outlast a 1 ms deadline on dense
       inputs *)
    Budget.check budget;
    incr nodes_visited;
    if current_max >= !best then incr pruned
    else if remaining = 0 then begin
      best := current_max;
      best_order := List.rev prefix
    end
    else if remaining - 1 <= current_max then begin
      (* finishing in any order costs at most remaining-1 <= current *)
      best := current_max;
      best_order := List.rev_append prefix (E.live_list s)
    end
    else begin
      let key = E.live_words s in
      match Words_tbl.find_opt memo key with
      | Some m when m <= current_max -> incr pruned
      | _ ->
        Words_tbl.replace memo key current_max;
        let n = s.E.n in
        let branch v cost =
          if max current_max cost < !best then begin
            let s' = E.copy s in
            E.eliminate s' v;
            go s' (v :: prefix) (max current_max cost) (remaining - 1)
          end
        in
        (* Simplicial vertices of low degree are always safe to
           eliminate first. *)
        let simplicial = ref (-1) and v = ref 0 in
        while !simplicial < 0 && !v < n do
          if E.is_live s !v && E.degree s !v < !best
             && E.is_simplicial s !v
          then simplicial := !v;
          incr v
        done;
        if !simplicial >= 0 then branch !simplicial (E.degree s !simplicial)
        else begin
          (* live vertices by degree, ties by vertex id: each packed
             as degree * n + vertex *)
          let cands = Array.make remaining 0 in
          ignore
            (E.fold_live
               (fun u k -> cands.(k) <- (E.degree s u * n) + u; k + 1)
               s 0);
          Array.sort Int.compare cands;
          Array.iter (fun c -> branch (c mod n) (c / n)) cands
        end
    end
  in
  let flush () =
    if Obs.enabled () then begin
      Obs.add m_nodes !nodes_visited;
      Obs.add m_pruned !pruned
    end
  in
  (* flush the search statistics even when the budget unwinds the
     search with Budget.Exhausted *)
  Fun.protect ~finally:flush (fun () ->
      go (E.of_graph g) [] 0 (Graph.num_vertices g));
  (!best, !best_order)

(* The heuristic bracket of [g]: the better greedy order with the
   width it reaches, and the MMD+ lower bound.  When the bounds meet,
   the greedy order is optimal and there is nothing to search.  The
   passes poll [budget] once per step.  [tripped] records a trip inside
   them, and then [ub] and [ub_order] are the best found so far: n - 1
   and the identity order before the min-degree pass is done, that
   pass's width and order after it. *)
type bracket = {
  ub : int;
  ub_order : int list;
  lb : int;
  tripped : Budget.reason option;
}

let bracket ~budget g =
  let cut (ub, ub_order) r = { ub; ub_order; lb = -1; tripped = Some r } in
  match Heuristics.min_degree_order ~budget g with
  | exception Budget.Exhausted r ->
    let n = Graph.num_vertices g in
    cut (n - 1, List.init n Fun.id) r
  | (w_md, _) as md -> (
    match Heuristics.min_fill_order ~budget g with
    | exception Budget.Exhausted r -> cut md r
    | (w_mf, _) as mf -> (
      let ((ub, ub_order) as best) = if w_mf <= w_md then mf else md in
      match Heuristics.lower_bound ~budget g with
      | exception Budget.Exhausted r -> cut best r
      | lb -> { ub; ub_order; lb; tripped = None }))

let is_closed b = b.lb >= b.ub

let fall_back b r =
  Obs.incr m_heuristic_fallbacks;
  Obs.journal ~severity:Obs.Warn
    ~attrs:
      [ ("reason", Budget.reason_to_string r);
        ("upper_bound", string_of_int b.ub) ]
    "tw.heuristic_fallback";
  (b.ub, b.ub_order, Some r)

(* Shared solver core: closes the bracket [b] of [g] by branch and
   bound and returns the best width/order found plus, when the budget
   tripped, the trip reason.  On a trip the returned pair is the
   bracket's upper bound — the degradation ladder's first rung costs
   nothing more. *)
let solve_from ~budget g b =
  match b.tripped with
  | Some r -> fall_back b r
  | None ->
    Obs.span "tw.solve" @@ fun () ->
    if Obs.enabled () then Obs.incr m_solves;
    if is_closed b then (b.ub, b.ub_order, None)
    else begin
      (* the BB improves on ub+1 (i.e., finds width <= ub) or keeps it *)
      match branch_and_bound ~budget g (b.ub + 1) b.ub_order with
      | w, order when w <= b.ub -> (w, order, None)
      | _ -> (b.ub, b.ub_order, None)
      | exception Budget.Exhausted r -> fall_back b r
    end

let solve_with ~budget g = solve_from ~budget g (bracket ~budget g)

let solve g =
  let w, order, _ = solve_with ~budget:Budget.unlimited g in
  (w, order)

let treewidth g = fst (solve g)
let optimal_order g = snd (solve g)

let treewidth_budgeted ~budget g =
  Obs.entry_point "tw.treewidth" @@ fun () ->
  match solve_with ~budget g with
  | w, _, None -> `Exact w
  | w, _, Some cause ->
    Outcome.degraded ~cause ~fallback:"Heuristics.upper_bound" w

module Cache = Wlcq_cache.Cache

let m_memo_hits = Obs.counter "tw.decomp_memo_hits"
let m_memo_misses = Obs.counter "tw.decomp_memo_misses"

(* one bitset block per bag plus the tree's adjacency, in words *)
let decomposition_words (d : Decomposition.t) =
  let bag_words b = 4 + ((Bitset.capacity b + 61) / 62) in
  let bags =
    Array.fold_left (fun acc b -> acc + bag_words b) 0 d.Decomposition.bags
  in
  16 + bags + (4 * Graph.num_vertices d.Decomposition.tree)

(* Pattern graphs are tiny and recur heavily (every interpolation step
   re-counts against the same extension family), so decompositions are
   worth caching in the shared content-addressed tier.  Two kinds of
   key, by what a recomputation costs:
   - a graph whose heuristic bracket closes is answered by its greedy
     order and stored under its as-labelled structural address:
     identical resubmissions hit, relabelled copies recompute.  The
     bracket is not the cheaper side: on 12-17-vertex G(n, 0.35)
     graphs it took 11-46 us on a 2-core host where a canonical
     labelling took 4-12 us, but every lookup here runs after the
     bracket, which a canonical hit could not save;
   - a graph that takes a search is stored under its canonical address,
     so isomorphic resubmissions hit even when relabelled; the stored
     decomposition is the canonical graph's, translated to and from
     caller vertex ids via the canonicalising permutation.
   Every lookup tries the structural address first, so a hit never
   pays for the bracket. *)
let decomposition_store =
  Cache.store ~name:"tw.decomposition" ~words:decomposition_words ()

(* A graph whose bracket stays open, under its canonical address:
   [None] when [budget] trips during the labelling (the caller then
   solves without the store), else the address, its permutation and
   the stored decomposition in canonical ids, if any. *)
let canonical_entry ~budget g =
  match Cache.address ~budget g with
  | exception Budget.Exhausted _ -> None
  | addr, perm -> Some (addr, perm, Cache.find decomposition_store addr)

(* lint: allow R8 Invalid_argument is Graph.create size validation on
   an internally built tree — an invariant check, not a budget outcome *)
let optimal_decomposition_budgeted ~budget g =
  Obs.entry_point "tw.decomposition" @@ fun () ->
  let solve b =
    let _, order, tripped = solve_from ~budget g b in
    let d = Elimination.decomposition_of_order g order in
    match tripped with
    | None -> `Exact d
    | Some cause -> Outcome.degraded ~cause ~fallback:"Heuristics order" d
  in
  let hit d =
    if Obs.enabled () then Obs.incr m_memo_hits;
    `Exact d
  in
  (* only proven-optimal decompositions may enter the tier *)
  let solve_and_add b addr to_addr =
    if Obs.enabled () then Obs.incr m_memo_misses;
    match solve b with
    | `Exact d as r ->
      Cache.add decomposition_store addr (to_addr d);
      r
    | r -> r
  in
  (* budgeted runs may READ the tier: a warm daemon answering a
     deadline-bound request should profit from results an unlimited
     (or earlier budgeted) run proved exact.  Only writes stay
     exact-only, so a degraded decomposition never enters the tier. *)
  if not (Cache.enabled ()) then solve (bracket ~budget g)
  else begin
    let key = Cache.structural_address g in
    match Cache.find decomposition_store key with
    | Some d -> hit d
    | None ->
      let b = bracket ~budget g in
      if Option.is_some b.tripped then solve b
      else if is_closed b then solve_and_add b key Fun.id
      else
        match canonical_entry ~budget g with
        | None -> solve b
        | Some (_, perm, Some dc) ->
          hit (Decomposition.relabel dc (Wlcq_util.Perm.inverse perm))
        | Some (addr, perm, None) ->
          solve_and_add b addr (fun d -> Decomposition.relabel d perm)
  end

(* [treewidth_budgeted] through the decomposition store, for a caller
   whose repeats come relabelled (the daemon).  A graph whose bracket
   closes is answered from it and stored nowhere: its relabelled
   copies would each add an entry that never hits.  A searched graph
   is found in, or added to, the store under its canonical address, as
   [optimal_decomposition_budgeted] does. *)
let treewidth_stored ~budget g =
  Obs.entry_point "tw.treewidth" @@ fun () ->
  let outcome (w, _, tripped) =
    match tripped with
    | None -> `Exact w
    | Some cause -> Outcome.degraded ~cause ~fallback:"Heuristics.upper_bound" w
  in
  let b = bracket ~budget g in
  if (not (Cache.enabled ())) || Option.is_some b.tripped || is_closed b then
    outcome (solve_from ~budget g b)
  else
    match canonical_entry ~budget g with
    | None -> outcome (solve_from ~budget g b)
    | Some (_, _, Some dc) ->
      if Obs.enabled () then Obs.incr m_memo_hits;
      `Exact (Decomposition.width dc)
    | Some (addr, perm, None) ->
      if Obs.enabled () then Obs.incr m_memo_misses;
      let ((_, order, tripped) as r) = solve_from ~budget g b in
      if Option.is_none tripped then
        Cache.add decomposition_store addr
          (Decomposition.relabel (Elimination.decomposition_of_order g order) perm);
      outcome r

let optimal_decomposition g =
  match optimal_decomposition_budgeted ~budget:Budget.unlimited g with
  | `Exact d | `Degraded (d, _) -> d
  | `Exhausted _ -> assert false

let is_at_most g k = treewidth g <= k

(* ------------------------------------------------------------------ *)
(* Subset dynamic program (Bodlaender et al.), for cross-validation.   *)
(* ------------------------------------------------------------------ *)

let treewidth_dp g =
  let n = Graph.num_vertices g in
  if n > 22 then invalid_arg "Exact.treewidth_dp: too many vertices";
  if n = 0 then -1
  else begin
    (* q s v: the degree of v once the vertices in the mask s have been
       eliminated = number of w outside s (and <> v) reachable from v
       through s. *)
    let adj = Array.init n (fun v -> Graph.neighbours_list g v) in
    let q s v =
      let seen = Array.make n false in
      let queue = Queue.create () in
      let count = ref 0 in
      seen.(v) <- true;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        List.iter
          (fun w ->
             if not seen.(w) then begin
               seen.(w) <- true;
               if (s lsr w) land 1 = 1 then Queue.add w queue
               else incr count
             end)
          adj.(u)
      done;
      !count
    in
    let size = 1 lsl n in
    let tw = Array.make size max_int in
    tw.(0) <- -1;
    (* iterate masks in increasing order; every proper submask of s is
       numerically smaller, so a plain loop respects dependencies *)
    for s = 1 to size - 1 do
      let best = ref max_int in
      for v = 0 to n - 1 do
        if (s lsr v) land 1 = 1 then begin
          let s' = s land lnot (1 lsl v) in
          let cost = max tw.(s') (q s' v) in
          if cost < !best then best := cost
        end
      done;
      tw.(s) <- !best
    done;
    tw.(size - 1)
  end
