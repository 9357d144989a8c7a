open Wlcq_graph
open Wlcq_treewidth
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Count = Wlcq_util.Count
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Fault = Wlcq_robust.Fault
module Dispatch = Wlcq_dispatch.Dispatch

(* The table and candidate counters of one caller's runs. *)
type counters = {
  entries : Obs.counter;
  packed_keys : Obs.counter;
  hashed_keys : Obs.counter;
  small_values : Obs.counter;
  big_values : Obs.counter;
  cand_total : Obs.counter;
  cand_pruned : Obs.counter;
}

let counters prefix =
  let c suffix = Obs.counter (prefix ^ suffix) in
  { entries = c ".dp_entries"; packed_keys = c ".packed_keys";
    hashed_keys = c ".hashed_keys"; small_values = c ".int63_values";
    big_values = c ".bigint_promotions"; cand_total = c ".candidates_total";
    cand_pruned = c ".candidates_pruned" }

let own = counters "td_count"
let m_runs = Obs.counter "td_count.runs"
let d_bag = Obs.distribution "td_count.bag_size"
let m_seq_runs = Obs.counter "td_count.seq_runs"
let m_par_runs = Obs.counter "td_count.par_runs"
let m_batch_runs = Obs.counter "td_count.batch_runs"
let m_decomp_shared = Obs.counter "td_count.decomp_shared"
let m_seq_resume = Obs.counter "robust.fallback.td_seq_resume"
let m_heuristic_decomp = Obs.counter "robust.fallback.td_heuristic_decomp"
let m_exhausted = Obs.counter "robust.fallback.td_exhausted"

(* ------------------------------------------------------------------ *)
(* Candidate pruning.                                                  *)
(* ------------------------------------------------------------------ *)

(* Target vertices of positive degree: a pattern vertex with an
   incident edge can only map there.  Shared across a count_many batch
   as the common candidate structure. *)
let support g =
  let s = Bitset.create (Graph.num_vertices g) in
  Graph.iter_edges g (fun u v ->
      Bitset.set s u;
      Bitset.set s v);
  s

(* Per-pattern-vertex candidate sets: the caller-supplied restriction
   (full sets by default), intersected with [seed] for vertices of
   positive degree, then refined by arc consistency over the pattern
   edges to a fixpoint: C_u ← C_u ∩ N_g(C_u') for every pattern edge
   (u, u').  Sound for homomorphism counting — only target vertices
   that cannot appear in any (restricted) homomorphism are removed.
   Degree- or cardinality-based filters stronger than this are NOT
   sound for homs (a hom need not be injective), so none are used. *)
let arc_consistent ~counters ?candidates ?seed h g =
  let n = Graph.num_vertices h in
  let ng = Graph.num_vertices g in
  let init u =
    let base =
      match candidates with None -> Bitset.full ng | Some c -> c u
    in
    match seed with
    | Some s when Graph.degree h u > 0 -> Bitset.inter base s
    | _ -> base
  in
  let cand = Array.init n init in
  let edges = Graph.edges h in
  let changed = ref true in
  (* hoisted out of the fixpoint: [refine] captures only the stable
     [cand]/[changed], so allocating it per pass was pure churn (R9) *)
  let refine a b =
    let nb = ref (Bitset.create ng) in
    Bitset.iter
      (fun w -> nb := Bitset.union !nb (Graph.neighbours g w))
      cand.(b);
    let next = Bitset.inter cand.(a) !nb in
    if not (Bitset.equal next cand.(a)) then begin
      cand.(a) <- next;
      changed := true
    end
  in
  let refine_edge (u, v) =
    refine u v;
    refine v u
  in
  (* lint: allow R7 monotone fixpoint: each pass either removes a
     candidate from some domain or terminates, so it runs at most
     n * |V(G)| passes *)
  while !changed do
    changed := false;
    List.iter refine_edge edges
  done;
  if Obs.enabled () then begin
    let kept = Array.fold_left (fun a b -> a + Bitset.cardinal b) 0 cand in
    Obs.add counters.cand_total (n * ng);
    Obs.add counters.cand_pruned ((n * ng) - kept)
  end;
  cand

(* The lean variant: seed intersection only, no fixpoint.  On tiny
   instances the arc-consistency loop costs more than the pruning it
   buys; Dispatch.prune_candidates picks between the two. *)
let seeded_candidates ?candidates ~seed h g =
  let ng = Graph.num_vertices g in
  Array.init (Graph.num_vertices h) (fun u ->
      let base =
        match candidates with None -> Bitset.full ng | Some c -> c u
      in
      if Graph.degree h u > 0 then Bitset.inter base seed else base)

(* ------------------------------------------------------------------ *)
(* Packed engine.                                                      *)
(* ------------------------------------------------------------------ *)

(* Saturating Σ_t n^|bag_t|, capped at 2^30 — only compared against the
   threshold, so saturation is harmless. *)
let work_estimate bags ng =
  let cap = 1 lsl 30 in
  let base = max 2 ng in
  let acc = ref 0 in
  Array.iter
    (fun b ->
       let w = ref 1 in
       for _ = 1 to Bitset.cardinal b do
         if !w > cap / base then w := cap else w := !w * base
       done;
       acc := min cap (!acc + !w))
    bags;
  !acc

type check = { scope : int array; holds : int array -> bool }

(* A check placed in its node: [pos] are its scope's positions in the
   bag, [buf] the scratch array [holds] reads the images from. *)
type placed = { pos : int array; buf : int array; test : int array -> bool }

(* Each check in the smallest bag covering its scope, lowest node on
   ties: the fewer positions its node enumerates, the fewer times the
   check runs. *)
let place_checks bags checks =
  let owned = Array.make (Array.length bags) [] in
  List.iter
    (fun ck ->
       let best = ref (-1) in
       Array.iteri
         (fun t b ->
            if
              (!best < 0 || Bitset.cardinal b < Bitset.cardinal bags.(!best))
              && Array.for_all (Bitset.mem b) ck.scope
            then best := t)
         bags;
       if !best < 0 || Array.length ck.scope = 0 then
         invalid_arg "Td_count.run: a check's scope is empty or in no bag";
       owned.(!best) <- ck :: owned.(!best))
    (List.rev checks);
  owned

(* The DP proper, over precomputed candidate sets.  The table at node t
   maps each partial homomorphism φ : B_t → V(G) (a hom of H[B_t]
   passing the checks placed at t) to the number of homomorphisms of
   H[V_t] → G extending φ that pass every check placed in the subtree,
   where V_t is the union of the bags in the subtree rooted at t;
   children are combined by grouping their tables by the restriction
   to the shared bag intersection (any vertex common to two children's
   subtrees lies in B_t by (T2), so the product counts every subtree
   vertex once).  Each node's table depends only on its subtree, so
   disjoint subtrees of the root are independent: workers process
   whole subtrees (strided over the root's children), touching only
   tables of their own subtree, and the driver processes the root
   after joining.  Determinism: a node's table is produced by the same
   sequence of operations whichever domain runs it, so results (and
   even hashtable iteration orders) are identical to the sequential
   run.  A check belongs to one node, so only the domain running that
   node ever calls it.

   Budget protocol: workers never raise across the spawn boundary —
   they tick the shared budget (atomic trip flag) and wind down when it
   is no longer live; the driver reads the verdict once after joining.
   A check that raises [Budget.Exhausted] trips the budget the same
   way, on the driver too, so no stride skips the join.
   A spawn-site fault (Fault.Domain_spawn) demotes that worker's stride
   to the driver, which processes it sequentially on the very same
   flat tables — results stay byte-identical, only the schedule
   changes. *)
let run ~budget ~counters ?(checks = []) d h g cand =
  let nodes = Graph.num_vertices d.Decomposition.tree in
  let nh = Graph.num_vertices h in
  let ng = Graph.num_vertices g in
  let bags = d.Decomposition.bags in
  let owned = place_checks bags checks in
  let rooted = Decomposition.rooted d in
  let root = rooted.Decomposition.root in
  let parent = rooted.Decomposition.parent in
  let postorder = rooted.Decomposition.postorder in
  let c = Dp_key.codec ~n:ng in
  let tables =
    Array.init nodes (fun t -> Dp_key.table c ~arity:(Bitset.cardinal bags.(t)))
  in
  (* flattened adjacency of the target graph, shared read-only by all
     nodes (and domains): edge-constrained positions enumerate the
     neighbour array of an already-placed endpoint with membership
     tests — no per-extension set allocation *)
  let adj =
    Array.init ng (fun v -> Array.of_list (Bitset.to_list (Graph.neighbours g v)))
  in
  let process_node t =
    let bag = Bitset.to_list bags.(t) in
    let bag_arr = Array.of_list bag in
    let arity = Array.length bag_arr in
    let inv = Array.make nh (-1) in
    let positions_in arr sub =
      Array.iteri (fun i v -> inv.(v) <- i) arr;
      let pos = Array.of_list (List.map (fun v -> inv.(v)) sub) in
      Array.iter (fun v -> inv.(v) <- -1) arr;
      pos
    in
    let grouped =
      Array.map
        (fun s ->
           let shared = Bitset.to_list (Bitset.inter bags.(t) bags.(s)) in
           let sbag_arr = Array.of_list (Bitset.to_list bags.(s)) in
           let spos_child = positions_in sbag_arr shared in
           let proj = Dp_key.project c tables.(s) spos_child in
           (positions_in bag_arr shared, proj))
        rooted.Decomposition.children.(t)
    in
    let ngroups = Array.length grouped in
    (* intra-bag pattern edges as position pairs: edges_at.(i) lists the
       earlier positions j < i with {bag_arr.(j), bag_arr.(i)} ∈ E(h),
       checked the moment position i is assigned *)
    let edges_at =
      Array.init arity (fun i ->
          let u = bag_arr.(i) in
          let js = ref [] in
          for j = i - 1 downto 0 do
            if Graph.adjacent h bag_arr.(j) u then js := j :: !js
          done;
          Array.of_list !js)
    in
    (* checks_at.(i): the checks whose scope's last position is i, in
       the order given *)
    let checks_at =
      let at = Array.make (max 1 arity) [] in
      List.iter
        (fun ck ->
           let pos = positions_in bag_arr (Array.to_list ck.scope) in
           let last = Array.fold_left max 0 pos in
           at.(last) <-
             { pos; buf = Array.make (Array.length pos) 0; test = ck.holds }
             :: at.(last))
        (List.rev owned.(t));
      Array.map Array.of_list at
    in
    (* flatten each position's candidate set once; unconstrained
       positions then iterate a plain int array, while edge-constrained
       positions iterate candidates ∩ neighbours of the already-placed
       endpoints — O(deg) instead of O(n) per extension *)
    let cand_arrs =
      Array.map (fun u -> Array.of_list (Bitset.to_list cand.(u))) bag_arr
    in
    let images = Array.make (max 1 arity) 0 in
    let value = ref Count.one in
    let ok = ref true in
    let emit () =
      value := Count.one;
      ok := true;
      for gi = 0 to ngroups - 1 do
        if !ok then begin
          let spos, proj = grouped.(gi) in
          let v = Dp_key.find c proj images spos in
          if Count.is_zero v then ok := false
          else value := Count.mul !value v
        end
      done;
      if !ok then Dp_key.bump c tables.(t) images !value
    in
    (* do the images placed so far pass the checks in [cs]? *)
    let passes cs =
      let pass = ref true and k = ref 0 in
      while !pass && !k < Array.length cs do
        let { pos; buf; test } = cs.(!k) in
        for j = 0 to Array.length pos - 1 do
          buf.(j) <- images.(pos.(j))
        done;
        pass := test buf;
        incr k
      done;
      !pass
    in
    (* budget enforcement is amortised through a local fuel counter:
       [Budget.tick]/[Budget.live] are out-of-line calls, and paying
       them at every recursion step costs ~4% on the F4 workload —
       checking every 64 steps keeps the overhead under the 3% bound
       while still winding down within a bounded suffix of the
       enumeration *)
    let fuel = ref 0 in
    let aborted = ref false in
    let rec go i =
      incr fuel;
      if !fuel land 63 = 0 then begin
        Budget.tick budget;
        if not (Budget.live budget) then aborted := true
      end;
      if !aborted then ()
      else if i = arity then emit ()
      else begin
        let es = edges_at.(i) in
        (* a position with no check makes no call: a run without
           checks pays one branch per extension for them *)
        let cks = checks_at.(i) in
        let unchecked = Array.length cks = 0 in
        if Array.length es = 0 then begin
          let ca = cand_arrs.(i) in
          for k = 0 to Array.length ca - 1 do
            images.(i) <- ca.(k);
            if unchecked || passes cks then go (i + 1)
          done
        end
        else begin
          let cs = cand.(bag_arr.(i)) in
          let pivot = adj.(images.(es.(0))) in
          let ne = Array.length es in
          for k = 0 to Array.length pivot - 1 do
            let w = pivot.(k) in
            if Bitset.mem cs w then begin
              let okw = ref true in
              let j = ref 1 in
              while !okw && !j < ne do
                if not (Graph.adjacent g images.(es.(!j)) w) then okw := false;
                incr j
              done;
              if !okw then begin
                images.(i) <- w;
                if unchecked || passes cks then go (i + 1)
              end
            end
          done
        end
      end
    in
    (try go 0 with Budget.Exhausted r -> Budget.trip budget r);
    (* projections are consumed only by this node's emits *)
    Array.iter (fun (_, proj) -> Dp_key.release proj) grouped
  in
  let kids = rooted.Decomposition.children.(root) in
  let nd =
    Dispatch.dp_domains
      ~requested:(Domain.recommended_domain_count ())
      ~subtrees:(Array.length kids)
      ~work:(work_estimate bags ng)
      ~threshold:(Dispatch.calibration ()).Dispatch.dp_parallel_min
  in
  let on = Obs.enabled () in
  if nd <= 1 then begin
    if on then Obs.incr m_seq_runs;
    Array.iter
      (fun t -> if Budget.live budget then process_node t)
      postorder
  end
  else begin
    if on then Obs.incr m_par_runs;
    (* kid_slot.(t): index (within kids) of the root child whose
       subtree contains t; worker w owns slots congruent to w mod nd. *)
    let kid_slot = Array.make nodes (-1) in
    Array.iteri (fun i k -> kid_slot.(k) <- i) kids;
    for i = nodes - 1 downto 0 do
      (* reverse postorder = BFS order: parents before children *)
      let t = postorder.(i) in
      let p = parent.(t) in
      if p >= 0 && p <> root then kid_slot.(t) <- kid_slot.(p)
    done;
    let process_stride w =
      Array.iter
        (fun t ->
           if t <> root && kid_slot.(t) mod nd = w && Budget.live budget then
             process_node t)
        postorder
    in
    (* spawn-site fault hook: a stride whose spawn "fails" is demoted
       to the driver and resumed sequentially after its own stride *)
    let rec spawn_from j workers demoted =
      if j >= nd then (List.rev workers, List.rev demoted)
      else if Fault.should_fail Fault.Domain_spawn then
        spawn_from (j + 1) workers (j :: demoted)
      else
        let w =
          Domain.spawn (fun () ->
              try process_stride j
              with Budget.Exhausted r -> Budget.trip budget r)
        in
        spawn_from (j + 1) (w :: workers) demoted
    in
    let workers, demoted = spawn_from 1 [] [] in
    process_stride 0;
    (match demoted with
     | [] -> ()
     | _ :: _ ->
       Obs.incr m_seq_resume;
       Obs.journal ~severity:Obs.Warn
         ~attrs:
           [ ("demoted_strides", string_of_int (List.length demoted)) ]
         "td_count.seq_resume";
       List.iter process_stride demoted);
    List.iter Domain.join workers;
    if Budget.live budget then process_node root
  end;
  if on then begin
    (* one flush per run, not per table or per value: each [Obs.add]
       is an atomic round-trip, and on DP-heavy runs anything finer
       (worst of all an [iter_values] traversal, which boxes dense
       counts) busts the armed-observability overhead bound *)
    let entries = ref 0 and packed = ref 0 and hashed = ref 0 in
    let bigs = ref 0 in
    Array.iteri
      (fun t tbl ->
         let len = Dp_key.length tbl in
         entries := !entries + len;
         Obs.observe d_bag (Bitset.cardinal bags.(t));
         if Dp_key.is_packed tbl then packed := !packed + len
         else hashed := !hashed + len;
         bigs := !bigs + Dp_key.count_big tbl)
      tables;
    Obs.add counters.entries !entries;
    Obs.add counters.packed_keys !packed;
    Obs.add counters.hashed_keys !hashed;
    Obs.add counters.small_values (!entries - !bigs);
    Obs.add counters.big_values !bigs
  end;
  let result =
    match Budget.tripped budget with
    | None -> Ok (Count.to_bigint (Dp_key.total tables.(root)))
    | Some r -> Error r
  in
  Array.iter Dp_key.release tables;
  result

(* Packed path shared by the entry points: candidate construction
   (full or lean, per the dispatch decision on the DP work estimate)
   followed by the flat-table DP. *)
let count_packed ~budget ?candidates ~seed d h g =
  if Obs.enabled () then Obs.incr m_runs;
  let work = work_estimate d.Decomposition.bags (Graph.num_vertices g) in
  let cand =
    if Dispatch.prune_candidates ~work then
      arc_consistent ~counters:own ?candidates ~seed h g
    else seeded_candidates ?candidates ~seed h g
  in
  match run ~budget ~counters:own d h g cand with
  | Ok v -> v
  | Error r -> raise (Budget.Exhausted r)

let run_packed_path ~budget ?candidates d h g =
  Obs.span "td_count.run" @@ fun () ->
    count_packed ~budget ?candidates ~seed:(support g) d h g

let choose h g =
  Dispatch.choose_hom ~nh:(Graph.num_vertices h) ~ng:(Graph.num_vertices g)
    ~mg:(Graph.num_edges g)

(* ------------------------------------------------------------------ *)
(* Content-addressed count cache                                       *)
(* ------------------------------------------------------------------ *)

module Cache = Wlcq_cache.Cache

let m_cache_hits = Obs.counter "td_count.cache_hits"
let m_cache_misses = Obs.counter "td_count.cache_misses"

let count_store =
  Cache.store ~name:"td_count.count"
    ~words:(fun (v : Bigint.t) -> 8 + (String.length (Bigint.to_string v) / 8))
    ()

(* hom(h, g) is isomorphism-invariant in both arguments, so the DP's
   root aggregate can be keyed on the pair of canonical digests and
   reused verbatim — no per-vertex translation needed for a total.
   The cache only arms itself where (a) the instance is DP-scale by
   the cost model — tiny brute instances would pay more in
   canonicalisation than the count costs — and (b) the caller did not
   restrict [?candidates] (a restricted count is not hom(h, g)).
   Differential tests that steer the engine through the calibration
   table turn the tier off, or they would compare cache hits. *)
let count_cacheable ?candidates h g =
  (match candidates with None -> true | Some _ -> false)
  && Cache.enabled ()
  && Dispatch.brute_cost ~nh:(Graph.num_vertices h)
       ~ng:(Graph.num_vertices g) ~mg:(Graph.num_edges g)
     > (Dispatch.calibration ()).Dispatch.brute_hom_max

(* both addresses are priced by the count they would let us skip *)
let count_key h g =
  let probe =
    Dispatch.Probe_hom
      (Dispatch.brute_cost ~nh:(Graph.num_vertices h)
         ~ng:(Graph.num_vertices g) ~mg:(Graph.num_edges g))
  in
  let address x =
    fst
      (Cache.address
         ~nodes:
           (Dispatch.address_nodes probe ~n:(Graph.num_vertices x)
              ~m:(Graph.num_edges x))
         x)
  in
  address h ^ "|" ^ address g

(* The pair's entry in the count store: an identical resubmission hits
   its as-labelled key, and only a relabelled one pays for canonical
   labelling. *)
let lookup h g =
  Cache.find_labelled count_store
    ~labelled:(Cache.structural_address h ^ "|" ^ Cache.structural_address g)
    ~canonical:(lazy (count_key h g))

(* [compute] raises [Budget.Exhausted] on a trip, so a value reaching
   [add] is exact by construction; degraded outcomes go through
   [count_budgeted], which bypasses this helper. *)
let count_via_cache ~cacheable h g compute =
  if not cacheable then compute ()
  else
    match lookup h g with
    | Some v, _ ->
      Obs.incr m_cache_hits;
      v
    | None, add ->
      Obs.incr m_cache_misses;
      let v = compute () in
      add v;
      v

let count_with_decomposition ?(budget = Budget.unlimited) ?candidates d h g =
  if not (Decomposition.is_valid_for d h) then
    invalid_arg "Td_count.count_with_decomposition: decomposition does not match the pattern";
  if Graph.num_vertices h = 0 then Bigint.one
  else if Graph.num_vertices g = 0 then Bigint.zero
  else
    match choose h g with
    | Dispatch.Hom_brute -> Bigint.of_int (Brute.count ~budget ?candidates h g)
    | Dispatch.Hom_packed -> run_packed_path ~budget ?candidates d h g

let count ?(budget = Budget.unlimited) ?candidates h g =
  if Graph.num_vertices h = 0 then Bigint.one
  else if Graph.num_vertices g = 0 then Bigint.zero
  else
    count_via_cache
      ~cacheable:(count_cacheable ?candidates h g) h g
      (fun () ->
         (* dispatch before the decomposition: the point of the brute
            path is that tiny instances skip the treewidth machinery
            entirely *)
         match choose h g with
         | Dispatch.Hom_brute ->
           Bigint.of_int (Brute.count ~budget ?candidates h g)
         | Dispatch.Hom_packed ->
           run_packed_path ~budget ?candidates
             (Exact.optimal_decomposition h) h g)

(* One exhaustion bookkeeping point for every ladder exit: counter,
   flight-recorder event, outcome. *)
let note_exhausted r =
  Obs.incr m_exhausted;
  Obs.journal ~severity:Obs.Warn
    ~attrs:[ ("reason", Budget.reason_to_string r) ]
    "td_count.exhausted";
  `Exhausted r

(* lint: allow R8 Invalid_argument is engine-selection validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let count_with_decomposition_budgeted ~budget ?candidates d h g =
  Obs.entry_point "td_count.count_with_decomposition" @@ fun () ->
  match count_with_decomposition ~budget ?candidates d h g with
  | v -> `Exact v
  | exception Budget.Exhausted r -> note_exhausted r

(* The full ladder: the decomposition step degrades to the heuristic
   order before the DP runs (a wider decomposition slows the DP but the
   count it produces is still exact), and only a trip inside the DP
   itself exhausts the run. *)
(* lint: allow R8 Invalid_argument is engine-selection validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let count_budgeted ~budget ?candidates h g =
  Obs.entry_point "td_count.count" @@ fun () ->
  if Graph.num_vertices h = 0 then `Exact Bigint.one
  else if Graph.num_vertices g = 0 then `Exact Bigint.zero
  else if
    (* tiny instances skip the whole decomposition ladder; a partial
       brute enumeration is still a sound lower bound, but the ladder's
       contract only carries the trip reason, so the partial is dropped *)
    match choose h g with
    | Dispatch.Hom_brute -> true
    | Dispatch.Hom_packed -> false
  then
    match Brute.count_budgeted ~budget ?candidates h g with
    | `Exact n -> `Exact (Bigint.of_int n)
    | `Degraded (n, r) -> `Degraded (Bigint.of_int n, r)
    | `Exhausted (_, r) -> note_exhausted r
  else begin
    (* budgeted runs read the cache too: a memoised total is exact
       whatever budget produced it, and a warm daemon answering
       deadline-bound requests is exactly the reader that profits.
       Only writes are gated — the [`Exact] arm below — so degraded
       values never enter the tier. *)
    let cacheable = count_cacheable ?candidates h g in
    let cached, add = if cacheable then lookup h g else (None, ignore) in
    match cached with
    | Some v ->
      Obs.incr m_cache_hits;
      `Exact v
    | None ->
      if cacheable then Obs.incr m_cache_misses;
      let outcome =
        match Exact.optimal_decomposition_budgeted ~budget h with
        | exception Budget.Exhausted r -> note_exhausted r
        | od ->
          let d, decomp_degraded =
            match od with
            | `Exact d -> (d, None)
            | `Degraded (d, r) -> (d, Some r)
            | `Exhausted _ -> assert false
          in
          (* the DP rung runs under a fork: the decomposition phase's
             trip latch must not poison an otherwise-completable DP
             (the fork re-trips immediately if the
             deadline/ceiling/token condition still holds) *)
          let dp_budget =
            match decomp_degraded with
            | None -> budget
            | Some _ -> Budget.fork budget
          in
          match count_with_decomposition ~budget:dp_budget ?candidates d h g
          with
          | exception Budget.Exhausted r -> note_exhausted r
          | v ->
            (match decomp_degraded with
             | None -> `Exact v
             | Some r ->
               Obs.incr m_heuristic_decomp;
               Obs.journal ~severity:Obs.Info
                 ~attrs:[ ("cause", Budget.reason_to_string r.Outcome.cause) ]
                 "td_count.heuristic_decomp";
               Outcome.degraded ~cause:r.Outcome.cause
                 ~fallback:"heuristic decomposition (count still exact)" v)
      in
      (* never cache [`Degraded]: only fully-trusted exact totals
         enter the tier *)
      (match outcome with `Exact v -> add v | _ -> ());
      outcome
  end

(* ------------------------------------------------------------------ *)
(* Batch API.                                                          *)
(* ------------------------------------------------------------------ *)

(* Is [h] the subgraph of [hmax] induced on its first [num_vertices h]
   vertices?  The extension family F_1 ⊆ F_2 ⊆ … of Lemma 22 is laid
   out exactly like this (free variables first, then one block of
   quantified copies per ℓ), which is what makes sharing the largest
   pattern's decomposition sound. *)
let is_prefix_induced h hmax =
  let n = Graph.num_vertices h in
  n <= Graph.num_vertices hmax
  && begin
    let ok = ref true in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Bool.equal (Graph.adjacent h u v) (Graph.adjacent hmax u v))
        then ok := false
      done
    done;
    !ok
  end

(* Restrict a decomposition of [hmax] to the prefix [0, n_i): same
   tree, bags intersected with the prefix.  For a prefix-induced
   pattern this preserves (T1) (every prefix vertex was covered), (T3)
   (every prefix edge is an hmax edge, so some bag contained it) and
   (T2) (subtree connectivity survives dropping vertices).  The raw
   restriction drags hmax's whole tree along — mostly emptied bags for
   a small prefix — so it is compacted before the DP runs over it. *)
let restrict_decomposition d n_i =
  let bags =
    Array.map
      (fun b ->
         let nb = Bitset.create n_i in
         Bitset.iter (fun v -> if v < n_i then Bitset.set nb v) b;
         nb)
      d.Decomposition.bags
  in
  Decomposition.compact { Decomposition.tree = d.Decomposition.tree; bags }

let count_many ?(budget = Budget.unlimited) ?candidates hs g =
  match hs with
  | [] -> []
  | h0 :: rest ->
    Obs.span "td_count.count_many" @@ fun () ->
      let on = Obs.enabled () in
      if on then Obs.incr m_batch_runs;
      let hmax =
        List.fold_left
          (fun a h ->
             if Graph.num_vertices h > Graph.num_vertices a then h else a)
          h0 rest
      in
      let n_max = Graph.num_vertices hmax in
      let d_max =
        if n_max = 0 then Decomposition.singleton hmax
        else Exact.optimal_decomposition hmax
      in
      (* one candidate structure for the whole batch: the target's
         support seeds every pattern's arc consistency *)
      let seed = support g in
      let ng = Graph.num_vertices g in
      List.map
        (fun h ->
           let n_i = Graph.num_vertices h in
           if n_i = 0 then Bigint.one
           else if ng = 0 then Bigint.zero
           else match choose h g with
           | Dispatch.Hom_brute ->
             Bigint.of_int (Brute.count ~budget ?candidates h g)
           | Dispatch.Hom_packed ->
             count_via_cache
               ~cacheable:(count_cacheable ?candidates h g) h g
               (fun () ->
                  let d =
                    (* a size-n_max "prefix" is full adjacency equality
                       with hmax — same vertex count alone is not
                       enough *)
                    if not (is_prefix_induced h hmax) then
                      Exact.optimal_decomposition h
                    else if n_i = n_max then begin
                      if on then Obs.incr m_decomp_shared;
                      d_max
                    end
                    else begin
                      let d' = restrict_decomposition d_max n_i in
                      if Decomposition.is_valid_for d' h then begin
                        if on then Obs.incr m_decomp_shared;
                        d'
                      end
                      else Exact.optimal_decomposition h
                    end
                  in
                  count_packed ~budget ?candidates ~seed d h g))
        hs
