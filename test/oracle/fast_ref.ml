(* The original answer-counting DP of Corollary 4: full
   Combinat.iter_tuples bag enumeration over a decomposition of the
   contract, int-list keys, Bigint arithmetic, each constraint in the
   first bag covering its scope.  The differential oracle for the
   packed engine in Wlcq_core.Fast_count — do not optimise. *)

open Wlcq_graph
open Wlcq_core
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Combinat = Wlcq_util.Combinat
module Tbl = Wlcq_util.Ordering.Int_list_tbl
module Budget = Wlcq_robust.Budget

(* A constraint over free-variable positions: a scope and a
   satisfaction check on the images of the scope (parallel arrays). *)
type constraint_ = { scope : int list; holds : int array -> bool }

(* [count_answers q g] is [|Ans(q, g)|].  [budget] is polled per
   enumerated tuple; [Budget.Exhausted] escapes when it trips. *)
let count_answers ?(budget = Budget.unlimited) q g =
  let h = q.Cq.graph in
  let n = Graph.num_vertices g in
  let xs = Cq.free_vars q in
  let k = Array.length xs in
  let pos_of = Hashtbl.create 8 in
  Array.iteri (fun p x -> Hashtbl.replace pos_of x p) xs;
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
    (* Predicate P_i for each attached component, memoised over the
       assignments of its attachment set. *)
    let component_constraints =
      List.filter_map
        (fun (members, attached) ->
           if List.is_empty attached then None
           else begin
             let vertices = List.sort_uniq Int.compare (members @ attached) in
             let sub, back = Ops.induced h vertices in
             let sub_pos = Hashtbl.create 8 in
             Array.iteri (fun i v -> Hashtbl.replace sub_pos v i) back;
             let sub_pos_of v =
               (* total: [sub_pos] indexes every vertex of [vertices],
                  and [attached] is a subset by construction *)
               match Hashtbl.find_opt sub_pos v with
               | Some i -> i
               | None -> assert false
             in
             let attach_sub = List.map sub_pos_of attached in
             let memo : bool Tbl.t = Tbl.create 64 in
             let holds images =
               let key = Array.to_list images in
               match Tbl.find_opt memo key with
               | Some b -> b
               | None ->
                 let pins =
                   List.map2 (fun sv img -> (sv, img)) attach_sub key
                 in
                 let b = Wlcq_hom.Brute.exists ~budget ~pins sub g in
                 Tbl.replace memo key b;
                 b
             in
             let x_pos_of v =
               (* total: attachment sets are subsets of X, and [pos_of]
                  indexes every free variable *)
               match Hashtbl.find_opt pos_of v with
               | Some p -> p
               | None -> assert false
             in
             Some { scope = List.map x_pos_of attached; holds }
           end)
        components
    in
    (* Edge constraints from H[X]. *)
    let edge_constraints = ref [] in
    Graph.iter_edges h (fun u v ->
        match (Hashtbl.find_opt pos_of u, Hashtbl.find_opt pos_of v) with
        | Some a, Some b ->
          edge_constraints :=
            { scope = [ min a b; max a b ];
              holds = (fun images -> Graph.adjacent g images.(0) images.(1)) }
            :: !edge_constraints
        | _ -> ());
    let constraints = component_constraints @ !edge_constraints in
    (* DP over a tree decomposition of the contract Γ(H,X)[X] (over
       position space).  Each δ_i is a clique there and hence contained
       in some bag; edges of H[X] likewise. *)
    let contract = Extension.contract q in
    let d = Wlcq_treewidth.Exact.optimal_decomposition contract in
    let nodes = Graph.num_vertices d.Wlcq_treewidth.Decomposition.tree in
    let bags = d.Wlcq_treewidth.Decomposition.bags in
    let bag_list t = Bitset.to_list bags.(t) in
    (* [positions_in bag_arr sub] maps each position of [sub] to its
       index in [bag_arr] — restrictions become O(|sub|) array reads
       instead of O(|bag|²) assoc scans. *)
    let inv = Array.make k (-1) in
    let positions_in bag_arr sub =
      Array.iteri (fun i p -> inv.(p) <- i) bag_arr;
      let pos = Array.of_list (List.map (fun p -> inv.(p)) sub) in
      Array.iter (fun p -> inv.(p) <- -1) bag_arr;
      pos
    in
    let restrict_images images pos =
      Array.fold_right (fun p acc -> images.(p) :: acc) pos []
    in
    (* Assign each constraint to the first bag containing its scope,
       together with the scope's positions inside that bag. *)
    let assigned = Array.make nodes [] in
    List.iter
      (fun c ->
         let rec find t =
           if t >= nodes then
             failwith
               "Fast_ref.count_answers: constraint scope not covered by \
                any bag (decomposition bug)"
           else if List.for_all (fun p -> Bitset.mem bags.(t) p) c.scope then
             assigned.(t) <-
               (c, positions_in (Array.of_list (bag_list t)) c.scope)
               :: assigned.(t)
           else find (t + 1)
         in
         find 0)
      constraints;
    (* Root the tree at 0, children before parents. *)
    let parent = Array.make nodes (-1) in
    let order = ref [] in
    let seen = Array.make nodes false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let t = Queue.take queue in
      order := t :: !order;
      Graph.iter_neighbours d.Wlcq_treewidth.Decomposition.tree t (fun s ->
          if not seen.(s) then begin
            seen.(s) <- true;
            parent.(s) <- t;
            Queue.add s queue
          end)
    done;
    let children = Array.make nodes [] in
    Array.iteri
      (fun s p -> if p >= 0 then children.(p) <- s :: children.(p))
      parent;
    let tables : Bigint.t Tbl.t array =
      Array.init nodes (fun _ -> Tbl.create 64)
    in
    List.iter
      (fun t ->
         let bag = bag_list t in
         let bag_arr = Array.of_list bag in
         let grouped =
           List.map
             (fun s ->
                let shared =
                  Bitset.to_list (Bitset.inter bags.(t) bags.(s))
                in
                let sbag_arr = Array.of_list (bag_list s) in
                let spos_child = positions_in sbag_arr shared in
                let proj : Bigint.t Tbl.t =
                  Tbl.create 64
                in
                Tbl.iter
                  (fun key v ->
                     let karr = Array.of_list key in
                     let r = restrict_images karr spos_child in
                     let prev =
                       Option.value ~default:Bigint.zero
                         (Tbl.find_opt proj r)
                     in
                     Tbl.replace proj r (Bigint.add prev v))
                  tables.(s);
                (positions_in bag_arr shared, proj))
             children.(t)
         in
         Combinat.iter_tuples n (Array.length bag_arr) (fun images ->
             Budget.tick_check budget;
             let satisfied =
               List.for_all
                 (fun (c, scope_pos) ->
                    c.holds (Array.map (Array.get images) scope_pos))
                 assigned.(t)
             in
             if satisfied then begin
               let value =
                 List.fold_left
                   (fun acc (spos, proj) ->
                      if Bigint.is_zero acc then acc
                      else
                        match
                          Tbl.find_opt proj (restrict_images images spos)
                        with
                        | None -> Bigint.zero
                        | Some v -> Bigint.mul acc v)
                   Bigint.one grouped
               in
               if not (Bigint.is_zero value) then
                 Tbl.replace tables.(t) (Array.to_list images) value
             end))
      !order;
    Tbl.fold (fun _ v acc -> Bigint.add acc v) tables.(0) Bigint.zero
  end
