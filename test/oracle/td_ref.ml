(* The original homomorphism-counting DP over a tree decomposition:
   int-list keys, full Bigint arithmetic, per-bag homomorphisms
   enumerated by Brute.  The differential oracle for the packed engine
   in Wlcq_hom.Td_count — do not optimise.

   The table at a decomposition node t maps each partial homomorphism
   φ : B_t → V(G) (a hom of H[B_t]) to the number of homomorphisms of
   H[V_t] → G extending φ, where V_t is the union of the bags in the
   subtree rooted at t.  Children are combined by grouping their tables
   by the restriction to the shared bag intersection: any vertex common
   to two children's subtrees lies in B_t by (T2), so the product over
   children counts every subtree vertex exactly once. *)

open Wlcq_graph
open Wlcq_treewidth
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Tbl = Wlcq_util.Ordering.Int_list_tbl
module Budget = Wlcq_robust.Budget
module Brute = Wlcq_hom.Brute

(* [count_with_decomposition d h g] is [|Hom(h, g)|] over [d], which
   must be valid for [h] (Invalid_argument otherwise).  [budget] is
   polled per enumerated bag homomorphism; [Budget.Exhausted] escapes
   when it trips. *)
let count_with_decomposition ?(budget = Budget.unlimited) ?candidates d h g =
  if not (Decomposition.is_valid_for d h) then
    invalid_arg "Td_ref.count_with_decomposition: decomposition does not match the pattern";
  let nodes = Graph.num_vertices d.Decomposition.tree in
  if Graph.num_vertices h = 0 then Bigint.one
  else if Graph.num_vertices g = 0 then Bigint.zero
  else begin
    (* Root the decomposition tree at node 0 and compute a post-order. *)
    let parent = Array.make nodes (-1) in
    let order = ref [] in
    let seen = Array.make nodes false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let t = Queue.take queue in
      order := t :: !order;
      Graph.iter_neighbours d.Decomposition.tree t (fun s ->
          if not seen.(s) then begin
            seen.(s) <- true;
            parent.(s) <- t;
            Queue.add s queue
          end)
    done;
    let postorder = !order (* reverse BFS order: children before parents *) in
    let bag_vertices t = Bitset.to_list d.Decomposition.bags.(t) in
    (* [positions_in bag_arr sub] maps each H-vertex of [sub] to its
       index in [bag_arr] — restrictions become O(|sub|) array reads
       instead of O(|bag|²) assoc scans. *)
    let inv = Array.make (Graph.num_vertices h) (-1) in
    let positions_in bag_arr sub =
      Array.iteri (fun i v -> inv.(v) <- i) bag_arr;
      let pos = Array.of_list (List.map (fun v -> inv.(v)) sub) in
      Array.iter (fun v -> inv.(v) <- -1) bag_arr;
      pos
    in
    let restrict_images images pos =
      Array.fold_right (fun p acc -> images.(p) :: acc) pos []
    in
    let tables : Bigint.t Tbl.t array =
      Array.init nodes (fun _ -> Tbl.create 64)
    in
    (* keys of a node's table: images of the bag vertices in increasing
       H-vertex order *)
    let children = Array.make nodes [] in
    Array.iteri
      (fun s p -> if p >= 0 then children.(p) <- s :: children.(p))
      parent;
    List.iter
      (fun t ->
         let bag = bag_vertices t in
         let bag_arr = Array.of_list bag in
         (* Per child: group the child table by the restriction to the
            intersection with this bag. *)
         let grouped =
           List.map
             (fun s ->
                let shared =
                  Bitset.to_list
                    (Bitset.inter d.Decomposition.bags.(t)
                       d.Decomposition.bags.(s))
                in
                let sbag_arr = Array.of_list (bag_vertices s) in
                let spos_child = positions_in sbag_arr shared in
                let proj : Bigint.t Tbl.t = Tbl.create 64 in
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
         (* Enumerate partial homomorphisms of H[bag] into g via the
            pruned backtracking of Brute on the induced subgraph; the
            hom array is parallel to [bag_arr] because [Ops.induced]
            keeps the ascending vertex order. *)
         let sub, back = Ops.induced h bag in
         let sub_candidates =
           Option.map (fun c i -> c back.(i)) candidates
         in
         Brute.iter ~budget ?candidates:sub_candidates sub g (fun m ->
             Budget.tick_check budget;
             let value =
               List.fold_left
                 (fun acc (spos, proj) ->
                    if Bigint.is_zero acc then acc
                    else
                      match
                        Tbl.find_opt proj (restrict_images m spos)
                      with
                      | None -> Bigint.zero
                      | Some v -> Bigint.mul acc v)
                 Bigint.one grouped
             in
             if not (Bigint.is_zero value) then begin
               let key = Array.to_list m in
               let prev =
                 Option.value ~default:Bigint.zero
                   (Tbl.find_opt tables.(t) key)
               in
               Tbl.replace tables.(t) key (Bigint.add prev value)
             end))
      postorder;
    Tbl.fold (fun _ v acc -> Bigint.add acc v) tables.(0) Bigint.zero
  end

(* [count h g] runs the oracle over an optimal decomposition of [h]. *)
let count ?candidates h g =
  count_with_decomposition ?candidates (Exact.optimal_decomposition h) h g
