open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Int_tbl = Wlcq_util.Ordering.Int_tbl
module Arr_tbl = Wlcq_util.Ordering.Int_array_tbl
module Td_count = Wlcq_hom.Td_count
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Dispatch = Wlcq_dispatch.Dispatch

let m_runs = Obs.counter "fast_count.runs"
let m_exhausted = Obs.counter "robust.fallback.fast_exhausted"
let m_memo_hits = Obs.counter "fast_count.memo_hits"
let m_memo_misses = Obs.counter "fast_count.memo_misses"
let counters = Td_count.counters "fast_count"

(* ------------------------------------------------------------------ *)
(* Projection-row kernel.                                              *)
(*                                                                     *)
(* Per attached quantified component C, with x_last the last variable *)
(* of its attachment δ in free-variable order, one Brute.iter sweep    *)
(* over Hom(H[C ∪ δ] − x_last, G) ORs the images x_last may then take, *)
(* ⋂_{u ∈ N_H(x_last)} N_G(φ(u)), into a row keyed by φ's images of    *)
(* δ − x_last.  A row is ⌈ng/62⌉ words in Bitset's layout and only     *)
(* keys with a non-empty row are stored, so a table is as large as the *)
(* projection of Hom onto δ, not ng^|δ|.  The join backtracks over the *)
(* free positions in order: a position's candidates are the AND of the *)
(* rows of the components ending there (looked up under the images    *)
(* already assigned; a missing key means none) and of the adjacency    *)
(* rows of its assigned H[X] neighbours — all of V(G) when it has      *)
(* neither — and the last position adds its popcount.  [total] only    *)
(* grows by complete answers, so it is a sound lower bound whenever    *)
(* the budget unwinds the search.                                      *)
(* ------------------------------------------------------------------ *)

(* [and_words dst d src s nw] ANDs the [nw] words of [src] at [s] into
   [dst] at [d]. *)
let and_words dst d src s nw =
  for w = 0 to nw - 1 do
    dst.(d + w) <- dst.(d + w) land src.(s + w)
  done

(* One component's rows, keyed by the images of δ − x_last read as a
   base-ng number; [key_pos] are those variables' free positions.  The
   dispatch routes here only while ng^(|X|-1) is below [sat_cap], so
   every code fits an int, and so does [total] <= ng^|X|. *)
type rows = { key_pos : int array; table : int array Int_tbl.t }

let component_rows ~budget ~nw ~adj h g pos_of (members, attached) =
  let ng = Graph.num_vertices g in
  (* [attached] is sorted, and free positions follow vertex order *)
  let last = List.fold_left max min_int attached in
  let key_vars = List.filter (fun x -> not (Int.equal x last)) attached in
  let sub, back = Ops.induced h (List.sort_uniq Int.compare (members @ key_vars)) in
  let sub_of = Int_tbl.create 8 in
  Array.iteri (fun i v -> Int_tbl.replace sub_of v i) back;
  let key_sub = Array.of_list (List.map (Int_tbl.find sub_of) key_vars) in
  (* non-empty: x_last is attached to C *)
  let nbrs =
    Array.of_list
      (List.filter_map (Int_tbl.find_opt sub_of) (Graph.neighbours_list h last))
  in
  let table = Int_tbl.create 64 in
  let acc = Array.make nw 0 in
  Wlcq_hom.Brute.iter ~budget sub g (fun phi ->
      Array.blit adj (phi.(nbrs.(0)) * nw) acc 0 nw;
      (* lint: allow R7 one row AND per neighbour of x_last, per
         homomorphism; Brute.iter polls once per search node *)
      for i = 1 to Array.length nbrs - 1 do
        and_words acc 0 adj (phi.(nbrs.(i)) * nw) nw
      done;
      if Array.fold_left ( lor ) 0 acc <> 0 then begin
        let code = ref 0 in
        for i = 0 to Array.length key_sub - 1 do
          code := (!code * ng) + phi.(key_sub.(i))
        done;
        let row =
          match Int_tbl.find table !code with
          | row -> row
          | exception Not_found ->
            let row = Array.make nw 0 in
            Int_tbl.add table !code row;
            row
        in
        for w = 0 to nw - 1 do
          row.(w) <- row.(w) lor acc.(w)
        done
      end);
  (last, { key_pos = Array.of_list (List.map (Int_tbl.find pos_of) key_vars); table })

let count_answers_rows ~budget ~total q g components =
  let h = q.Cq.graph in
  let n = Graph.num_vertices g in
  let xs = Cq.free_vars q in
  let k = Array.length xs in
  let pos_of = Int_tbl.create 8 in
  Array.iteri (fun p x -> Int_tbl.replace pos_of x p) xs;
  Obs.span "fast_count.run_enum" @@ fun () ->
    if Obs.enabled () then Obs.incr m_runs;
    let bpw = Bitset.bits_per_word in
    let nw = (n + bpw - 1) / bpw in
    let adj = Graph.adjacency_words g in
    let rows_at = Array.make k [] in
    List.iter
      (fun ((_, attached) as c) ->
         if not (List.is_empty attached) then begin
           let last, rows = component_rows ~budget ~nw ~adj h g pos_of c in
           let p = Int_tbl.find pos_of last in
           rows_at.(p) <- rows :: rows_at.(p)
         end)
      components;
    let rows_at = Array.map Array.of_list rows_at in
    (* H[X] edges, each at its later endpoint *)
    let edges_at = Array.make k [] in
    Graph.iter_edges h (fun u v ->
        match (Int_tbl.find_opt pos_of u, Int_tbl.find_opt pos_of v) with
        | Some a, Some b ->
          edges_at.(max a b) <- min a b :: edges_at.(max a b)
        | _ -> ());
    let edges_at = Array.map Array.of_list edges_at in
    let full =
      Array.init nw (fun w -> (1 lsl min bpw (n - (w * bpw))) - 1)
    in
    (* position i's candidate words live at [i * nw] *)
    let cand = Array.make (k * nw) 0 in
    let images = Array.make k 0 in
    let rec go i =
      Budget.tick_check budget;
      let base = i * nw in
      Array.blit full 0 cand base nw;
      let comps = rows_at.(i) in
      let live = ref true and c = ref 0 in
      while !live && !c < Array.length comps do
        let { key_pos; table } = comps.(!c) in
        let code = ref 0 in
        for j = 0 to Array.length key_pos - 1 do
          code := (!code * n) + images.(key_pos.(j))
        done;
        (match Int_tbl.find table !code with
         | row -> and_words cand base row 0 nw
         | exception Not_found -> live := false);
        incr c
      done;
      if !live then begin
        let earlier = edges_at.(i) in
        for e = 0 to Array.length earlier - 1 do
          and_words cand base adj (images.(earlier.(e)) * nw) nw
        done;
        if i = k - 1 then
          for w = 0 to nw - 1 do
            total := !total + Bitset.popcount cand.(base + w)
          done
        else
          for w = 0 to nw - 1 do
            let x = ref cand.(base + w) in
            while !x <> 0 do
              let b = !x land - !x in
              images.(i) <- (w * bpw) + Bitset.popcount (b - 1);
              go (i + 1);
              x := !x lxor b
            done
          done
      end
    in
    go 0;
    Bigint.of_int !total

(* ------------------------------------------------------------------ *)
(* Packed engine: Td_count's DP loop on H[X] over a decomposition of   *)
(* the contract Γ(H,X)[X], with one check per attached quantified      *)
(* component.  Each δ_i is a clique of the contract, so some bag holds *)
(* it; the edges of H[X] are the loop's own pattern edges.             *)
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
    let checks =
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
             Some
               { Td_count.scope =
                   Array.of_list (List.map (Int_tbl.find pos_of) attached);
                 holds }
           end)
        components
    in
    (* Candidates: the target support for variables with an edge in H,
       filtered by the unary checks, then arc consistency over H[X].
       Each step only removes images no answer uses. *)
    let support = Td_count.support g in
    let init =
      Array.init k (fun p ->
          if Graph.degree h xs.(p) > 0 then support else Bitset.full n)
    in
    List.iter
      (fun { Td_count.scope; holds } ->
         match scope with
         | [| p |] ->
           let keep = Bitset.create n in
           Bitset.iter (fun v -> if holds [| v |] then Bitset.set keep v) init.(p);
           init.(p) <- keep
         | _ -> ())
      checks;
    let hx, _ = Ops.induced h (Array.to_list xs) in
    let cand =
      Td_count.arc_consistent ~counters ~candidates:(Array.get init) hx g
    in
    let d = Wlcq_treewidth.Exact.optimal_decomposition (Extension.contract q) in
    match Td_count.run ~budget ~counters ~checks d hx g cand with
    | Ok v -> v
    | Error r -> raise (Budget.Exhausted r)

(* ------------------------------------------------------------------ *)
(* Entry point: shared trivial cases, then engine dispatch.  [total]   *)
(* is the kernel's running count, read back as the sound partial when  *)
(* the budget trips; the packed DP never writes it.                    *)
(* ------------------------------------------------------------------ *)

(* The dispatch features of [q]: the (|C|, |δ_C|) of each attached
   quantified component, and the edge count of H[X]. *)
let features q components =
  let comps =
    List.filter_map
      (fun (members, attached) ->
         if List.is_empty attached then None
         else Some (List.length members, List.length attached))
      components
  in
  let free_edges = ref 0 in
  Graph.iter_edges q.Cq.graph (fun u v ->
      if Bitset.mem q.Cq.free u && Bitset.mem q.Cq.free v then
        incr free_edges);
  (comps, !free_edges)

let answer_costs q g =
  let comps, free_edges = features q (Extension.quantified_components q) in
  Dispatch.answer_costs ~nx:(Cq.num_free q) ~free_edges ~comps
    ~ng:(Graph.num_vertices g) ~mg:(Graph.num_edges g)

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
    let comps, free_edges = features q components in
    match
      Dispatch.choose_answers ~nx:k ~free_edges ~comps ~ng:n
        ~mg:(Graph.num_edges g)
    with
    | Dispatch.Ans_enum -> count_answers_rows ~budget ~total q g components
    | Dispatch.Ans_packed -> count_answers_packed ~budget q g components
  end

let count_answers ?(budget = Budget.unlimited) q g =
  count ~budget ~total:(ref 0) q g

(* the partial is the kernel's running total at the trip (a sound
   lower bound, see [count_answers_rows]); a DP table cut off mid-run
   admits no sound reading, so a packed run reports 0 *)
(* lint: allow R8 the reachable Invalid_argument raises are
   internal-invariant checks (every attachment set lies in a bag of the
   contract's decomposition, DP key arity): programming errors, not
   budget outcomes *)
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
