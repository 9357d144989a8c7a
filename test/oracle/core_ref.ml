(* Counting cores by exhaustive endomorphism enumeration: the search
   that [Minimize] and [Kcq] ran before the pinned retraction search.
   It enumerates endomorphisms, keeps the first that maps X bijectively
   onto X with a proper image, raises it to the power that fixes X
   pointwise, and recurses on the induced image.  Exponential in |V(H)|
   on a counting-minimal query (the whole space is enumerated), so only
   the query-sized inputs of the differential tests can use it. *)

open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Cq = Wlcq_core.Cq
module Kcq = Wlcq_kg.Kcq
module Kgraph = Wlcq_kg.Kgraph
module Khom = Wlcq_kg.Khom

exception Found of int array

(* The first endomorphism [iter] enumerates that maps [free] bijectively
   onto [free] and whose image misses at least one of the [n] vertices. *)
let shrinking_raw ~n ~free iter =
  try
    iter (fun endo ->
        let image = Bitset.create n in
        Array.iter (fun v -> Bitset.set image v) endo;
        if Bitset.cardinal image < n then begin
          let ximg = Bitset.create n in
          let bijective = ref true in
          Bitset.iter
            (fun x ->
               if Bitset.mem ximg endo.(x) then bijective := false
               else Bitset.set ximg endo.(x))
            free;
          if !bijective && Bitset.equal ximg free then
            raise (Found (Array.copy endo))
        end);
    None
  with Found endo -> Some endo

(* The power of [endo] that fixes [free] pointwise (the order of the
   permutation it induces there); the image can only shrink. *)
let fix_free_pointwise ~free endo =
  let compose f g = Array.init (Array.length g) (fun v -> f.(g.(v))) in
  let identity_on_free h = Bitset.for_all (fun x -> h.(x) = x) free in
  let rec go h = if identity_on_free h then h else go (compose endo h) in
  go endo

let image_members n endo =
  let image = Bitset.create n in
  Array.iter (fun v -> Bitset.set image v) endo;
  Bitset.to_list image

let relocate back free =
  let new_of_old = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace new_of_old v i) back;
  List.map (Hashtbl.find new_of_old) (Bitset.to_list free)

(* ---- plain queries: free variables may only land in X ---- *)

let plain_raw q =
  let h = q.Cq.graph in
  let n = Graph.num_vertices h in
  let free = q.Cq.free in
  let candidates v =
    if Bitset.mem free v then Bitset.copy free else Bitset.full n
  in
  shrinking_raw ~n ~free (Wlcq_hom.Brute.iter ~candidates h h)

let is_counting_minimal q = Option.is_none (plain_raw q)

let shrinking_endomorphism q =
  Option.map (fix_free_pointwise ~free:q.Cq.free) (plain_raw q)

let rec counting_core q =
  match shrinking_endomorphism q with
  | None -> q
  | Some endo ->
    let h = q.Cq.graph in
    let sub, back = Ops.induced h (image_members (Graph.num_vertices h) endo) in
    counting_core (Cq.make sub (relocate back q.Cq.free))

(* ---- knowledge-graph queries: every label-preserving endomorphism ---- *)

let kg_raw q =
  let h = q.Kcq.graph in
  shrinking_raw ~n:(Kgraph.num_vertices h) ~free:q.Kcq.free (Khom.iter h h)

let kg_is_counting_minimal q = Option.is_none (kg_raw q)

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
  let vertex_labels = Array.map (fun v -> Kgraph.vertex_label h v) members in
  (Kgraph.create ~n:(Array.length members) ~vertex_labels ~edges, members)

let rec kg_counting_core q =
  match Option.map (fix_free_pointwise ~free:q.Kcq.free) (kg_raw q) with
  | None -> q
  | Some endo ->
    let h = q.Kcq.graph in
    let sub, back =
      induced_kgraph h (image_members (Kgraph.num_vertices h) endo)
    in
    kg_counting_core (Kcq.make sub (relocate back q.Kcq.free))
