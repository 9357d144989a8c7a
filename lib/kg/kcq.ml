module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget
module Graph = Wlcq_graph.Graph
module Ops = Wlcq_graph.Ops
module Traversal = Wlcq_graph.Traversal

type t = { graph : Kgraph.t; free : Bitset.t }

let make h xs =
  let n = Kgraph.num_vertices h in
  let free = Bitset.create n in
  List.iter
    (fun x ->
       if x < 0 || x >= n then
         invalid_arg "Kcq.make: free variable out of range";
       if Bitset.mem free x then
         invalid_arg "Kcq.make: duplicate free variable";
       Bitset.set free x)
    xs;
  { graph = h; free }

let free_vars q = Array.of_list (Bitset.to_list q.free)
let quantified_vars q =
  Array.of_list (Bitset.to_list (Bitset.complement q.free))
let num_free q = Bitset.cardinal q.free
let is_connected q = Traversal.is_connected (Kgraph.underlying q.graph)

let pins_of q a =
  let xs = free_vars q in
  Array.to_list (Array.mapi (fun i x -> (x, a.(i))) xs)

let is_answer ?budget q g a =
  Khom.exists ?budget ~pins:(pins_of q a) q.graph g

let count_answers ?(budget = Budget.unlimited) q g =
  let k = num_free q in
  let n = Kgraph.num_vertices g in
  if k = 0 then begin
    Budget.check budget;
    if Khom.exists ~budget q.graph g then 1 else 0
  end
  else begin
    let count = ref 0 in
    Wlcq_util.Combinat.iter_tuples n k (fun a ->
        (* one tick per candidate assignment, as in Cq.iter_answers *)
        Budget.tick_check budget;
        if is_answer ~budget q g a then incr count);
    !count
  end

(* Γ over the underlying Gaifman graph *)
let quantified_components q =
  let under = Kgraph.underlying q.graph in
  let ys = Array.to_list (quantified_vars q) in
  if List.is_empty ys then []
  else begin
    let sub, back = Ops.induced under ys in
    List.map
      (fun comp ->
         let members = List.map (fun v -> back.(v)) comp in
         let attached =
           List.sort_uniq Int.compare
             (List.concat_map
                (fun y ->
                   List.filter
                     (fun w -> Bitset.mem q.free w)
                     (Graph.neighbours_list under y))
                members)
         in
         (members, attached))
      (Traversal.component_members sub)
  end

let gamma_graph q =
  let under = Kgraph.underlying q.graph in
  let extra =
    List.concat_map
      (fun (_, attached) ->
         let rec pairs = function
           | [] -> []
           | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
         in
         pairs attached)
      (quantified_components q)
  in
  Ops.add_edges under extra

let extension_width ?(budget = Budget.unlimited) q =
  Wlcq_core.Extension.exact_tw ~budget (gamma_graph q)

(* counting-core machinery, mirroring Wlcq_core.Minimize over
   label-preserving knowledge-graph endomorphisms *)

exception Found of int array

let shrinking_raw ~budget q =
  let h = q.graph in
  let n = Kgraph.num_vertices h in
  try
    Khom.iter ~budget h h (fun endo ->
        let image = Bitset.create n in
        Array.iter (fun v -> Bitset.set image v) endo;
        if Bitset.cardinal image < n then begin
          let ximg = Bitset.create n in
          let bijective = ref true in
          Bitset.iter
            (fun x ->
               if Bitset.mem ximg endo.(x) then bijective := false
               else Bitset.set ximg endo.(x))
            q.free;
          if !bijective && Bitset.equal ximg q.free then
            raise (Found (Array.copy endo))
        end);
    None
  with Found endo -> Some endo

let fix_free_pointwise q endo =
  let compose f g = Array.init (Array.length g) (fun v -> f.(g.(v))) in
  let identity_on_free h = Bitset.for_all (fun x -> h.(x) = x) q.free in
  let rec go h = if identity_on_free h then h else go (compose endo h) in
  go endo

let is_counting_minimal ?(budget = Budget.unlimited) q =
  Option.is_none (shrinking_raw ~budget q)

let induced_kgraph h members =
  let members = Array.of_list members in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) members;
  let edges =
    List.filter_map
      (fun (u, v, l) ->
         match (Hashtbl.find_opt pos u, Hashtbl.find_opt pos v) with
         | Some i, Some j -> Some (i, j, l)
         | _ -> None)
      (Kgraph.edges h)
  in
  let vertex_labels =
    Array.map (fun v -> Kgraph.vertex_label h v) members
  in
  (Kgraph.create ~n:(Array.length members) ~vertex_labels ~edges, members)

let rec counting_core ?(budget = Budget.unlimited) q =
  match Option.map (fix_free_pointwise q) (shrinking_raw ~budget q) with
  | None -> q
  | Some endo ->
    let n = Kgraph.num_vertices q.graph in
    let image = Bitset.create n in
    Array.iter (fun v -> Bitset.set image v) endo;
    let sub, back = induced_kgraph q.graph (Bitset.to_list image) in
    let new_of_old = Hashtbl.create n in
    Array.iteri (fun i v -> Hashtbl.replace new_of_old v i) back;
    let new_free =
      List.map (Hashtbl.find new_of_old) (Bitset.to_list q.free)
    in
    counting_core ~budget (make sub new_free)

let semantic_extension_width ?(budget = Budget.unlimited) q =
  extension_width ~budget (counting_core ~budget q)

let wl_dimension ?budget q =
  if not (is_connected q) then
    invalid_arg "Kcq.wl_dimension: query must be connected";
  if num_free q = 0 then
    invalid_arg "Kcq.wl_dimension: query must have a free variable";
  semantic_extension_width ?budget q

let of_cq q =
  let h = Kgraph.of_graph q.Wlcq_core.Cq.graph ~vertex_label:0 ~edge_label:0 in
  make h (Bitset.to_list q.Wlcq_core.Cq.free)
