open Wlcq_graph
open Wlcq_treewidth
module Bitset = Wlcq_util.Bitset

type node =
  | Leaf
  | Introduce of int * int
  | Forget of int * int
  | Join of int * int

type t = { nodes : node array; bags : Bitset.t array; root : int }

let of_decomposition d ~universe =
  let tree = d.Decomposition.tree in
  let obags = d.Decomposition.bags in
  let count = Graph.num_vertices tree in
  let nodes = ref [] in
  let bags = ref [] in
  let next = ref 0 in
  let add node bag =
    nodes := node :: !nodes;
    bags := bag :: !bags;
    let id = !next in
    incr next;
    id
  in
  (* ramp from [from_id] (with bag [from_bag]) to bag [target]: forget
     the extras, then introduce the missing vertices *)
  let ramp from_id from_bag target =
    let id = ref from_id in
    let bag = ref from_bag in
    Bitset.iter
      (fun v ->
         if not (Bitset.mem target v) then begin
           bag := Bitset.remove !bag v;
           id := add (Forget (v, !id)) !bag
         end)
      from_bag;
    Bitset.iter
      (fun v ->
         if not (Bitset.mem !bag v) then begin
           bag := Bitset.add !bag v;
           id := add (Introduce (v, !id)) !bag
         end)
      target;
    !id
  in
  let leaf_ramp target =
    ramp (add Leaf (Bitset.create universe)) (Bitset.create universe) target
  in
  if count = 0 then begin
    let root = add Leaf (Bitset.create universe) in
    { nodes = Array.of_list (List.rev !nodes);
      bags = Array.of_list (List.rev !bags);
      root }
  end
  else begin
    let rooted = Decomposition.rooted d in
    let rec build t =
      let target = obags.(t) in
      match Array.to_list rooted.Decomposition.children.(t) with
      | [] -> leaf_ramp target
      | first :: rest ->
        let first_id = ramp (build first) obags.(first) target in
        List.fold_left
          (fun acc s ->
             let sid = ramp (build s) obags.(s) target in
             add (Join (acc, sid)) target)
          first_id rest
    in
    let top = build rooted.Decomposition.root in
    (* forget everything to reach an empty root bag *)
    let root = ramp top obags.(rooted.Decomposition.root) (Bitset.create universe) in
    { nodes = Array.of_list (List.rev !nodes);
      bags = Array.of_list (List.rev !bags);
      root }
  end

let width t =
  Array.fold_left (fun acc b -> max acc (Bitset.cardinal b)) 0 t.bags - 1

let num_nodes t = Array.length t.nodes

let is_valid_for t h =
  let n = Array.length t.nodes in
  n > 0
  && t.root = n - 1
  && Bitset.is_empty t.bags.(t.root)
  && begin
    (* structural rules per node *)
    let structural = ref true in
    Array.iteri
      (fun i node ->
         let ok =
           match node with
           | Leaf -> Bitset.is_empty t.bags.(i)
           | Introduce (v, c) ->
             c < i
             && Bitset.mem t.bags.(i) v
             && Bitset.equal t.bags.(c) (Bitset.remove t.bags.(i) v)
           | Forget (v, c) ->
             c < i
             && (not (Bitset.mem t.bags.(i) v))
             && Bitset.equal t.bags.(i) (Bitset.remove t.bags.(c) v)
           | Join (c1, c2) ->
             c1 < i && c2 < i
             && Bitset.equal t.bags.(c1) t.bags.(i)
             && Bitset.equal t.bags.(c2) t.bags.(i)
         in
         if not ok then structural := false)
      t.nodes;
    !structural
  end
  && begin
    (* as an ordinary tree decomposition of h *)
    let edges = ref [] in
    Array.iteri
      (fun i node ->
         match node with
         | Leaf -> ()
         | Introduce (_, c) | Forget (_, c) -> edges := (i, c) :: !edges
         | Join (c1, c2) -> edges := (i, c1) :: (i, c2) :: !edges)
      t.nodes;
    let tree = Graph.create n !edges in
    Decomposition.is_valid_for (Decomposition.make tree t.bags) h
  end
