open Wlcq_graph
module Bitset = Wlcq_util.Bitset

(* Simulate elimination: returns, for each position i in the order, the
   set of neighbours of the i-th vertex among vertices eliminated later
   (in the progressively filled graph). *)
let higher_neighbour_sets g order =
  let n = Graph.num_vertices g in
  let order = Array.of_list order in
  if Array.length order <> n
     || not (Wlcq_util.Perm.is_permutation order) then
    invalid_arg "Elimination.higher_neighbour_sets: order must be a permutation of the vertices";
  let s = Elim_state.of_graph g in
  let sets =
    Array.map
      (fun v ->
         let higher =
           Elim_state.fold_live_neighbours
             (fun w b -> Bitset.set b w; b)
             s v (Bitset.create n)
         in
         Elim_state.eliminate s v;
         higher)
      order
  in
  (order, sets)

let width_of_order g order =
  let _, sets = higher_neighbour_sets g order in
  Array.fold_left (fun acc s -> max acc (Bitset.cardinal s)) 0 sets

let fill_graph g order =
  let n = Graph.num_vertices g in
  let order_arr, sets = higher_neighbour_sets g order in
  let edges = ref (Graph.edges g) in
  Array.iteri
    (fun i s -> Bitset.iter (fun w -> edges := (order_arr.(i), w) :: !edges) s)
    sets;
  Graph.create n !edges

let decomposition_of_order g order =
  let n = Graph.num_vertices g in
  if n = 0 then
    Decomposition.make (Graph.empty 1) [| Bitset.create 0 |]
  else begin
    let order_arr, sets = higher_neighbour_sets g order in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) order_arr;
    let bags =
      Array.init n (fun i -> Bitset.add sets.(i) order_arr.(i))
    in
    (* Parent of node i: the node of the earliest-eliminated higher
       neighbour; nodes without higher neighbours are component roots,
       chained together afterwards (their bags share no vertices with
       other components, so (T2) is unaffected). *)
    let tree_edges = ref [] in
    let roots = ref [] in
    (* lint: allow R7 single pass over the n decomposition nodes *)
    for i = 0 to n - 1 do
      if Bitset.is_empty sets.(i) then roots := i :: !roots
      else begin
        let parent =
          Bitset.fold (fun w acc -> min acc position.(w)) sets.(i) max_int
        in
        tree_edges := (i, parent) :: !tree_edges
      end
    done;
    (match !roots with
     | [] -> assert false
     | r0 :: rest ->
       ignore (List.fold_left
                 (fun prev r -> tree_edges := (prev, r) :: !tree_edges; r)
                 r0 rest));
    Decomposition.make (Graph.create n !tree_edges) bags
  end
