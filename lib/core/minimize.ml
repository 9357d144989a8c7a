open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget

exception Found of int array

(* One existence search per quantified vertex y: every free variable is
   pinned to itself and no vertex may land on y. *)
let retraction ?(budget = Budget.unlimited) ~free search =
  let all = Bitset.full (Bitset.capacity free) in
  let pins = List.map (fun x -> (x, x)) (Bitset.to_list free) in
  let rec first = function
    | [] -> None
    | y :: ys -> (
        (* [search] is the caller's closure: poll between searches *)
        Budget.check budget;
        let avoid = Bitset.remove all y in
        match
          search ~pins ~candidates:(fun _ -> avoid) (fun endo ->
              raise (Found (Array.copy endo)))
        with
        | () -> first ys
        | exception Found endo -> Some endo)
  in
  first (Bitset.to_list (Bitset.complement free))

let shrinking_endomorphism ?(budget = Budget.unlimited) q =
  let h = q.Cq.graph in
  retraction ~budget ~free:q.Cq.free (fun ~pins ~candidates ->
      Wlcq_hom.Brute.iter ~budget ~pins ~candidates h h)

let is_counting_minimal q = Option.is_none (shrinking_endomorphism q)

let rec counting_core ?budget q =
  match shrinking_endomorphism ?budget q with
  | None -> q
  | Some endo ->
    let h = q.Cq.graph in
    let image = Bitset.of_list (Graph.num_vertices h) (Array.to_list endo) in
    (* [back] maps new labels to old in increasing order, and [endo]
       fixes X, so X is the set of new labels whose old one is free *)
    let sub, back = Ops.induced h (Bitset.to_list image) in
    let new_free =
      List.filter
        (fun i -> Bitset.mem q.Cq.free back.(i))
        (List.init (Array.length back) Fun.id)
    in
    counting_core ?budget (Cq.make sub new_free)
