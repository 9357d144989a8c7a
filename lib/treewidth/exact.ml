open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

let m_solves = Obs.counter "tw.solves"
let m_nodes = Obs.counter "tw.search_nodes"
let m_pruned = Obs.counter "tw.pruned"
let m_heuristic_fallbacks = Obs.counter "robust.fallback.tw_heuristic"

module Bitset_tbl = Hashtbl.Make (struct
    type t = Bitset.t

    let equal = Bitset.equal
    let hash = Bitset.hash
  end)

(* ------------------------------------------------------------------ *)
(* Branch and bound over elimination orders.                           *)
(* ------------------------------------------------------------------ *)

let live_neighbours adj alive v =
  Bitset.fold (fun w acc -> if alive.(w) then w :: acc else acc) adj.(v) []

let is_simplicial adj alive v =
  let neigh = live_neighbours adj alive v in
  let rec all_pairs = function
    | [] -> true
    | a :: rest ->
      List.for_all (fun b -> Bitset.mem adj.(a) b) rest && all_pairs rest
  in
  all_pairs neigh

(* Search for an order of width < best.  State is copied per branch;
   the memo table maps the eliminated set to the smallest running
   maximum with which it has been reached. *)
let branch_and_bound ~budget g initial_ub initial_order =
  let n = Graph.num_vertices g in
  let best = ref initial_ub in
  let best_order = ref initial_order in
  let memo : int Bitset_tbl.t = Bitset_tbl.create 1024 in
  (* search statistics, accumulated locally and flushed once *)
  let nodes_visited = ref 0 in
  let pruned = ref 0 in
  let rec go adj alive eliminated prefix current_max remaining =
    (* a full poll per node, not one per tick interval: a node copies
       the adjacency and scans for simplicial vertices, so the clock
       read is noise, while 1024 nodes can outlast a 1 ms deadline by
       tens of milliseconds on dense 26-vertex inputs *)
    Budget.check budget;
    incr nodes_visited;
    if current_max >= !best then incr pruned
    else if remaining = 0 then begin
      best := current_max;
      best_order := List.rev prefix
    end
    else if remaining - 1 <= current_max then begin
      (* finishing in any order costs at most remaining-1 <= current *)
      let rest = List.filter (fun v -> alive.(v)) (Graph.vertices g) in
      best := current_max;
      best_order := List.rev_append prefix rest
    end
    else begin
      match Bitset_tbl.find_opt memo eliminated with
      | Some m when m <= current_max -> incr pruned
      | _ ->
        Bitset_tbl.replace memo eliminated current_max;
        (* Simplicial vertices of low degree are always safe to
           eliminate first. *)
        let simplicial =
          List.find_opt
            (fun v ->
               alive.(v)
               && Bitset.cardinal
                    (Bitset.of_list n (live_neighbours adj alive v))
                  < !best
               && is_simplicial adj alive v)
            (Graph.vertices g)
        in
        let candidates =
          match simplicial with
          | Some v -> [ v ]
          | None ->
            let live = List.filter (fun v -> alive.(v)) (Graph.vertices g) in
            List.sort
              (fun a b ->
                 Int.compare
                   (List.length (live_neighbours adj alive a))
                   (List.length (live_neighbours adj alive b)))
              live
        in
        List.iter
          (fun v ->
             let neigh = live_neighbours adj alive v in
             let cost = List.length neigh in
             if max current_max cost < !best then begin
               let adj' = Array.map Bitset.copy adj in
               List.iter
                 (fun a ->
                    List.iter
                      (fun b ->
                         if a <> b then begin
                           Bitset.set adj'.(a) b;
                           Bitset.set adj'.(b) a
                         end)
                      neigh)
                 neigh;
               let alive' = Array.copy alive in
               alive'.(v) <- false;
               go adj' alive' (Bitset.add eliminated v) (v :: prefix)
                 (max current_max cost) (remaining - 1)
             end)
          candidates
    end
  in
  let adj = Array.init n (Graph.neighbours g) in
  let alive = Array.make n true in
  let flush () =
    if Obs.enabled () then begin
      Obs.add m_nodes !nodes_visited;
      Obs.add m_pruned !pruned
    end
  in
  (* flush the search statistics even when the budget unwinds the
     search with Budget.Exhausted *)
  Fun.protect ~finally:flush (fun () -> go adj alive (Bitset.create n) [] 0 n);
  (!best, !best_order)

(* Shared solver core: returns the best width/order found plus, when
   the budget tripped mid-search, the trip reason.  On a trip the
   returned pair is the heuristic bracket (a sound upper bound), which
   was computed before the branch and bound started — the degradation
   ladder's first rung is free. *)
let solve_with ~budget g =
  let n = Graph.num_vertices g in
  if n = 0 then (-1, [], None)
  else Obs.span "tw.solve" @@ fun () ->
    if Obs.enabled () then Obs.incr m_solves;
    let order_md = Heuristics.min_degree_order g in
    let order_mf = Heuristics.min_fill_order g in
    let w_md = Elimination.width_of_order g order_md in
    let w_mf = Elimination.width_of_order g order_mf in
    let ub, ub_order =
      if w_mf <= w_md then (w_mf, order_mf) else (w_md, order_md)
    in
    let lb = Heuristics.lower_bound g in
    if lb >= ub then (ub, ub_order, None)
    else begin
      (* the BB improves on ub+1 (i.e., finds width <= ub) or keeps it *)
      match branch_and_bound ~budget g (ub + 1) ub_order with
      | w, order when w <= ub -> (w, order, None)
      | _ -> (ub, ub_order, None)
      | exception Budget.Exhausted r ->
        Obs.incr m_heuristic_fallbacks;
        Obs.journal ~severity:Obs.Warn
          ~attrs:
            [ ("reason", Budget.reason_to_string r);
              ("upper_bound", string_of_int ub) ]
          "tw.heuristic_fallback";
        (ub, ub_order, Some r)
    end

let solve g =
  let w, order, _ = solve_with ~budget:Budget.unlimited g in
  (w, order)

let treewidth g = fst (solve g)
let optimal_order g = snd (solve g)

(* lint: allow R8 Invalid_argument is permutation validation on an
   internally built order — an invariant check, not a budget outcome *)
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
   worth caching.  Entries live in the shared content-addressed tier:
   the key is the canonical-form digest, so isomorphic resubmissions
   hit even when relabelled, and the stored decomposition is the
   canonical graph's — translated to and from caller vertex ids via
   the canonicalising permutation. *)
let decomposition_store =
  Cache.store ~name:"tw.decomposition" ~words:decomposition_words ()

(* lint: allow R8 Invalid_argument is Graph.create size validation on
   an internally built tree — an invariant check, not a budget outcome *)
let optimal_decomposition_budgeted ~budget g =
  Obs.entry_point "tw.decomposition" @@ fun () ->
  let solve_plain () =
    let _, order, tripped = solve_with ~budget g in
    let d = Elimination.decomposition_of_order g order in
    (d, tripped)
  in
  (* budgeted runs may READ the tier: a warm daemon answering a
     deadline-bound request should profit from results an unlimited
     (or earlier budgeted) run proved exact.  Only writes stay
     exact-only — the [d, None] arm below — so a degraded decomposition
     never enters the tier. *)
  if not (Cache.enabled ()) then begin
    match solve_plain () with
    | d, None -> `Exact d
    | d, Some cause -> Outcome.degraded ~cause ~fallback:"Heuristics order" d
  end
  else begin
    let addr, perm = Cache.address g in
    match Cache.find decomposition_store addr with
    | Some dc ->
      if Obs.enabled () then Obs.incr m_memo_hits;
      `Exact (Decomposition.relabel dc (Wlcq_util.Perm.inverse perm))
    | None ->
      if Obs.enabled () then Obs.incr m_memo_misses;
      (match solve_plain () with
       | d, None ->
         (* only proven-optimal decompositions may enter the tier *)
         Cache.add decomposition_store addr (Decomposition.relabel d perm);
         `Exact d
       | d, Some cause ->
         Outcome.degraded ~cause ~fallback:"Heuristics order" d)
  end

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
