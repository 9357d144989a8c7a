open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Count = Wlcq_util.Count
module Int_tbl = Wlcq_util.Ordering.Int_tbl
module Arr_tbl = Wlcq_util.Ordering.Int_array_tbl
module Dp_key = Wlcq_hom.Dp_key
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Dispatch = Wlcq_dispatch.Dispatch

let m_runs = Obs.counter "fast_count.runs"
let m_exhausted = Obs.counter "robust.fallback.fast_exhausted"
let m_entries = Obs.counter "fast_count.dp_entries"
let m_memo_hits = Obs.counter "fast_count.memo_hits"
let m_memo_misses = Obs.counter "fast_count.memo_misses"
let m_packed_keys = Obs.counter "fast_count.packed_keys"
let m_hashed_keys = Obs.counter "fast_count.hashed_keys"
let m_small_values = Obs.counter "fast_count.int63_values"
let m_big_values = Obs.counter "fast_count.bigint_promotions"
let m_cand_total = Obs.counter "fast_count.candidates_total"
let m_cand_pruned = Obs.counter "fast_count.candidates_pruned"

(* A constraint over free-variable positions: a scope and a
   satisfaction check on the images of the scope (parallel arrays). *)
type constraint_ = { scope : int list; holds : int array -> bool }

(* ------------------------------------------------------------------ *)
(* Packed engine: Dp_key tables, Count arithmetic, per-position        *)
(* candidate sets with constraint-scheduled backtracking instead of    *)
(* full tuple enumeration, smallest-covering-bag constraint            *)
(* assignment.  Sequential by design: the component predicate memos    *)
(* are shared closures and not safe to call from worker domains.       *)
(* ------------------------------------------------------------------ *)

(* Target vertices of positive degree — a free variable with any
   incident pattern edge can only map there. *)
let target_support g =
  let s = Bitset.create (Graph.num_vertices g) in
  Graph.iter_edges g (fun u v ->
      Bitset.set s u;
      Bitset.set s v);
  s

(* ------------------------------------------------------------------ *)
(* Enumeration kernel for small instances.                             *)
(*                                                                     *)
(* When ng^|X| and every component sweep Hom(H[C ∪ δ], G) are small,   *)
(* the contract/decomposition/Dp_key machinery of the packed engine    *)
(* below costs more than the whole count.  This kernel tabulates each  *)
(* attached component's satisfiable δ-assignments into a flat byte     *)
(* table with ONE homomorphism enumeration per component, then counts  *)
(* free assignments by direct backtracking with early edge pruning —   *)
(* no decomposition, no packed tables, no arc consistency.  Each free  *)
(* assignment is visited once, in a fixed order, and only complete     *)
(* answers are counted, so [total] is a sound lower bound on           *)
(* |Ans(q, g)| whenever the budget unwinds the search.                 *)
(* ------------------------------------------------------------------ *)

let count_answers_enum ~budget ~total q g components =
  let h = q.Cq.graph in
  let n = Graph.num_vertices g in
  let xs = Cq.free_vars q in
  let k = Array.length xs in
  let pos_of = Int_tbl.create 8 in
  Array.iteri (fun p x -> Int_tbl.replace pos_of x p) xs;
  Obs.span "fast_count.run_enum" @@ fun () ->
    if Obs.enabled () then Obs.incr m_runs;
    (* per attached component: scope positions in X plus a membership
       check on their images, tabulated by one Brute.iter sweep.  The
       table has ng^|δ| entries with δ ⊆ X, and the dispatch decision
       that routed here bounded ng^|X| by enum_answers_max, so each
       table fits. *)
    let comp_checks =
      List.filter_map
        (fun (members, attached) ->
           if List.is_empty attached then None
           else begin
             let vertices = List.sort_uniq Int.compare (members @ attached) in
             let sub, back = Ops.induced h vertices in
             let sub_pos = Int_tbl.create 8 in
             Array.iteri (fun i v -> Int_tbl.replace sub_pos v i) back;
             let attach_sub =
               Array.of_list (List.map (Int_tbl.find sub_pos) attached)
             in
             let da = Array.length attach_sub in
             let scope =
               Array.of_list (List.map (Int_tbl.find pos_of) attached)
             in
             let tbl = Bytes.make (Dispatch.sat_pow n da) '\000' in
             Wlcq_hom.Brute.iter ~budget sub g (fun m ->
                 let code = ref 0 in
                 for i = 0 to da - 1 do
                   code := (!code * n) + m.(attach_sub.(i))
                 done;
                 (* lint: allow R2 code < n^da = |tbl| by construction *)
                 Bytes.unsafe_set tbl !code '\001');
             let holds images =
               let code = ref 0 in
               for i = 0 to da - 1 do
                 code := (!code * n) + images.(scope.(i))
               done;
               (* lint: allow R2 code < n^da = |tbl| by construction *)
               Bytes.unsafe_get tbl !code = '\001'
             in
             let last = Array.fold_left max 0 scope in
             Some (last, holds)
           end)
        components
    in
    (* H[X] edge checks fire as soon as their later endpoint is
       assigned; component checks as soon as their whole scope is. *)
    let edges_at = Array.make k [] in
    Graph.iter_edges h (fun u v ->
        match (Int_tbl.find_opt pos_of u, Int_tbl.find_opt pos_of v) with
        | Some a, Some b ->
          let lo = min a b and hi = max a b in
          edges_at.(hi) <- lo :: edges_at.(hi)
        | _ -> ());
    let checks_at = Array.make k [] in
    List.iter
      (fun (last, holds) -> checks_at.(last) <- holds :: checks_at.(last))
      comp_checks;
    let images = Array.make k 0 in
    let rec go i =
      if i = k then incr total
      else begin
        Budget.tick_check budget;
        for v = 0 to n - 1 do
          images.(i) <- v;
          if
            (* enumeration engine: dispatch caps total work at
               enum_answers_max, so the per-step closures below are inside
               the cost the model already charged *)
            List.for_all (fun j -> Graph.adjacent g images.(j) v) edges_at.(i) (* lint: hot-alloc dispatch-capped enumeration, see above *)
            && List.for_all (fun holds -> holds images) checks_at.(i)
          then go (i + 1)
        done
      end
    in
    go 0;
    Bigint.of_int !total

(* ------------------------------------------------------------------ *)
(* Packed engine proper (see header above).                            *)
(* ------------------------------------------------------------------ *)

let count_answers_packed ~budget q g components =
  let h = q.Cq.graph in
  let n = Graph.num_vertices g in
  let xs = Cq.free_vars q in
  let k = Array.length xs in
  let pos_of = Int_tbl.create 8 in
  Array.iteri (fun p x -> Int_tbl.replace pos_of x p) xs;
  Obs.span "fast_count.run" @@ fun () ->
    let on = Obs.enabled () in
    if on then Obs.incr m_runs;
    (* Predicate P_i per attached component, memoised on the images of
       its attachment set (array-keyed, structural equality). *)
    let component_constraints =
      List.filter_map
        (fun (members, attached) ->
           if List.is_empty attached then None
           else begin
             let vertices = List.sort_uniq Int.compare (members @ attached) in
             let sub, back = Ops.induced h vertices in
             let sub_pos = Int_tbl.create 8 in
             Array.iteri (fun i v -> Int_tbl.replace sub_pos v i) back;
             let attach_sub = List.map (Int_tbl.find sub_pos) attached in
             let memo : bool Arr_tbl.t = Arr_tbl.create 64 in
             let holds images =
               match Arr_tbl.find_opt memo images with
               | Some b ->
                 if on then Obs.incr m_memo_hits;
                 b
               | None ->
                 if on then Obs.incr m_memo_misses;
                 let pins =
                   List.map2
                     (fun sv img -> (sv, img))
                     attach_sub (Array.to_list images)
                 in
                 let b = Wlcq_hom.Brute.exists ~budget ~pins sub g in
                 Arr_tbl.replace memo (Array.copy images) b;
                 b
             in
             Some { scope = List.map (Int_tbl.find pos_of) attached; holds }
           end)
        components
    in
    (* Edge constraints from H[X]; also collect the position pairs for
       the arc-consistency sweep below. *)
    let edge_constraints = ref [] in
    let free_edges = ref [] in
    Graph.iter_edges h (fun u v ->
        match (Int_tbl.find_opt pos_of u, Int_tbl.find_opt pos_of v) with
        | Some a, Some b ->
          free_edges := (a, b) :: !free_edges;
          edge_constraints :=
            { scope = [ min a b; max a b ];
              holds = (fun images -> Graph.adjacent g images.(0) images.(1)) }
            :: !edge_constraints
        | _ -> ());
    let constraints = component_constraints @ !edge_constraints in
    (* Per-position candidate sets: target support for positions with
       incident pattern edges, filtered by unary component predicates,
       then arc consistency over the H[X] edges.  Each step only
       removes target vertices that cannot appear in any answer, so
       restricting the bag enumeration below is sound. *)
    let gsupport = target_support g in
    let cand =
      Array.init k (fun p ->
          if Graph.degree h xs.(p) > 0 then Bitset.copy gsupport
          else Bitset.full n)
    in
    List.iter
      (fun c ->
         match c.scope with
         | [ p ] ->
           let keep = Bitset.create n in
           Bitset.iter (fun v -> if c.holds [| v |] then Bitset.set keep v)
             cand.(p);
           cand.(p) <- keep
         | _ -> ())
      component_constraints;
    let changed = ref true in
    (* hoisted out of the fixpoint: [refine] captures only the stable
       [cand]/[changed], so allocating it per pass was pure churn (R9) *)
    let refine a b =
      let nb = ref (Bitset.create n) in
      Bitset.iter
        (fun w -> nb := Bitset.union !nb (Graph.neighbours g w))
        cand.(b);
      let next = Bitset.inter cand.(a) !nb in
      if not (Bitset.equal next cand.(a)) then begin
        cand.(a) <- next;
        changed := true
      end
    in
    let refine_edge (a, b) =
      refine a b;
      refine b a
    in
    while !changed do
      changed := false;
      List.iter refine_edge !free_edges
    done;
    if on then begin
      let kept = Array.fold_left (fun acc b -> acc + Bitset.cardinal b) 0 cand in
      Obs.add m_cand_total (k * n);
      Obs.add m_cand_pruned ((k * n) - kept)
    end;
    (* DP over a tree decomposition of the contract Γ(H,X)[X] (over
       position space).  Each δ_i is a clique there and hence contained
       in some bag; edges of H[X] likewise. *)
    let contract = Extension.contract q in
    let d = Wlcq_treewidth.Exact.optimal_decomposition contract in
    let nodes = Graph.num_vertices d.Wlcq_treewidth.Decomposition.tree in
    let bags = d.Wlcq_treewidth.Decomposition.bags in
    let bag_list t = Bitset.to_list bags.(t) in
    let inv = Array.make k (-1) in
    let positions_in bag_arr sub =
      Array.iteri (fun i p -> inv.(p) <- i) bag_arr;
      let pos = Array.of_list (List.map (fun p -> inv.(p)) sub) in
      Array.iter (fun p -> inv.(p) <- -1) bag_arr;
      pos
    in
    (* Assign each constraint to the smallest bag covering its scope
       (lowest node index on ties), so predicates are checked against
       as few enumerated positions as possible. *)
    let assigned = Array.make nodes [] in
    List.iter
      (fun c ->
         let best = ref (-1) in
         let best_card = ref max_int in
         for t = 0 to nodes - 1 do
           if
             Bitset.cardinal bags.(t) < !best_card
             (* lint: hot-alloc setup: one probe per (check, bag) pair, runs once before the DP *)
             && List.for_all (fun p -> Bitset.mem bags.(t) p) c.scope
           then begin
             best := t;
             best_card := Bitset.cardinal bags.(t)
           end
         done;
         if !best < 0 then
           failwith
             "Fast_count.count_answers: constraint scope not covered by any \
              bag (decomposition bug)";
         assigned.(!best) <-
           (c, positions_in (Array.of_list (bag_list !best)) c.scope)
           :: assigned.(!best))
      constraints;
    let rooted = Wlcq_treewidth.Decomposition.rooted d in
    let codec = Dp_key.codec ~n in
    let tables =
      Array.init nodes (fun t ->
          Dp_key.table codec ~arity:(Bitset.cardinal bags.(t)))
    in
    (* the DP is sequential by design (shared predicate memos), so the
       budget may unwind by exception; tables go back to the pool
       either way *)
    Fun.protect ~finally:(fun () -> Array.iter Dp_key.release tables)
    @@ fun () ->
    Array.iter
      (fun t ->
         Budget.check budget;
         let bag_arr = Array.of_list (bag_list t) in
         let arity = Array.length bag_arr in
         let grouped =
           Array.to_list
             (Array.map
                (fun s ->
                   let shared = Bitset.to_list (Bitset.inter bags.(t) bags.(s)) in
                   let sbag_arr = Array.of_list (bag_list s) in
                   let proj =
                     Dp_key.project codec tables.(s)
                       (positions_in sbag_arr shared)
                   in
                   (positions_in bag_arr shared, proj))
                rooted.Wlcq_treewidth.Decomposition.children.(t))
         in
         (* Constraints fire as soon as the last position of their
            scope is assigned, pruning the enumeration early. *)
         let scheduled = Array.make (max 1 arity) [] in
         List.iter
           (fun (c, spos) ->
              let last = Array.fold_left max 0 spos in
              scheduled.(last) <- (c, spos) :: scheduled.(last))
           assigned.(t);
         let images = Array.make (max 1 arity) 0 in
         let rec go i =
           Budget.tick_check budget;
           if i = arity then begin
             let value = ref Count.one in
             let ok = ref true in
             List.iter
               (fun (spos, proj) ->
                  if !ok then begin
                    let v = Dp_key.find codec proj images spos in
                    if Count.is_zero v then ok := false
                    else value := Count.mul !value v
                  end)
               grouped;
             if !ok then
               Dp_key.bump codec tables.(t)
                 (if arity = 0 then [||] else images)
                 !value
           end
           else
             Bitset.iter
               (fun v ->
                  images.(i) <- v;
                  if
                    List.for_all
                      (fun (c, spos) ->
                         c.holds (Array.map (Array.get images) spos))
                      scheduled.(i)
                  then go (i + 1))
               cand.(bag_arr.(i))
         in
         go 0;
         (* projections are consumed only by this node's enumeration *)
         List.iter (fun (_, proj) -> Dp_key.release proj) grouped)
      rooted.Wlcq_treewidth.Decomposition.postorder;
    if on then begin
      (* one flush per run, as in Td_count: per-value atomic incrs (or
         a boxing [iter_values] traversal) bust the armed-observability
         overhead bound *)
      let entries = ref 0 and packed = ref 0 and hashed = ref 0 in
      let bigs = ref 0 in
      Array.iter
        (fun tbl ->
           let len = Dp_key.length tbl in
           entries := !entries + len;
           if Dp_key.is_packed tbl then packed := !packed + len
           else hashed := !hashed + len;
           bigs := !bigs + Dp_key.count_big tbl)
        tables;
      Obs.add m_entries !entries;
      Obs.add m_packed_keys !packed;
      Obs.add m_hashed_keys !hashed;
      Obs.add m_small_values (!entries - !bigs);
      Obs.add m_big_values !bigs
    end;
    Count.to_bigint
      (Dp_key.total tables.(rooted.Wlcq_treewidth.Decomposition.root))

(* ------------------------------------------------------------------ *)
(* Entry point: shared trivial cases, then engine dispatch.  [total]   *)
(* is the kernel's running count, read back as the sound partial when  *)
(* the budget trips; the packed DP never writes it.                    *)
(* ------------------------------------------------------------------ *)

let count ~budget ~total q g =
  let h = q.Cq.graph in
  let n = Graph.num_vertices g in
  let k = Array.length (Cq.free_vars q) in
  let components = Extension.quantified_components q in
  (* Components with no attachment contribute a global boolean factor:
     some homomorphism must exist for them at all. *)
  let boolean_ok =
    List.for_all
      (fun (members, attached) ->
         not (List.is_empty attached)
         || begin
           let sub, _ = Ops.induced h members in
           Wlcq_hom.Brute.exists ~budget sub g
         end)
      components
  in
  if not boolean_ok then Bigint.zero
  else if k = 0 then
    if Wlcq_hom.Brute.exists ~budget h g then Bigint.one else Bigint.zero
  else begin
    let max_comp =
      List.fold_left
        (fun acc (members, attached) ->
           if List.is_empty attached then acc
           else max acc (List.length members + List.length attached))
        0 components
    in
    match
      Dispatch.choose_answers ~nx:k ~max_comp ~ng:n ~mg:(Graph.num_edges g)
    with
    | Dispatch.Ans_enum -> count_answers_enum ~budget ~total q g components
    | Dispatch.Ans_packed -> count_answers_packed ~budget q g components
  end

let count_answers ?(budget = Budget.unlimited) q g =
  count ~budget ~total:(ref 0) q g

(* the partial is the kernel's running total at the trip (a sound
   lower bound, see [count_answers_enum]); a DP table cut off mid-run
   admits no sound reading, so a packed run reports 0 *)
(* lint: allow R8 the reachable Failure and Invalid_argument raises are
   internal-invariant checks (decomposition coverage, DP key arity):
   programming errors, not budget outcomes *)
let count_answers_budgeted ~budget q g =
  Obs.entry_point "fast_count.count_answers" @@ fun () ->
  let total = ref 0 in
  match count ~budget ~total q g with
  | v -> `Exact v
  | exception Budget.Exhausted r ->
    Obs.incr m_exhausted;
    Obs.journal ~severity:Obs.Warn
      ~attrs:
        [ ("reason", Budget.reason_to_string r);
          ("partial", string_of_int !total) ]
      "fast_count.exhausted";
    `Exhausted (Bigint.of_int !total, r)
