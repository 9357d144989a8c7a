module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget
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

let extension_width ?budget q =
  Wlcq_core.Extension.extension_width ?budget
    (Wlcq_core.Cq.make (Kgraph.underlying q.graph) (Bitset.to_list q.free))

(* counting cores through Wlcq_core.Minimize's pinned retraction search,
   run over label- and direction-preserving endomorphisms *)

let shrinking_endomorphism ~budget q =
  let h = q.graph in
  Wlcq_core.Minimize.retraction ~budget ~free:q.free
    (fun ~pins ~candidates -> Khom.iter ~budget ~pins ~candidates h h)

let is_counting_minimal ?(budget = Budget.unlimited) q =
  Option.is_none (shrinking_endomorphism ~budget q)

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
  match shrinking_endomorphism ~budget q with
  | None -> q
  | Some endo ->
    let n = Kgraph.num_vertices q.graph in
    let image = Bitset.of_list n (Array.to_list endo) in
    (* [back] maps new labels to old in increasing order, and [endo]
       fixes X, so X is the set of new labels whose old one is free *)
    let sub, back = induced_kgraph q.graph (Bitset.to_list image) in
    let new_free =
      List.filter
        (fun i -> Bitset.mem q.free back.(i))
        (List.init (Array.length back) Fun.id)
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
