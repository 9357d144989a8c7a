(* Backtracking over the vertices of h in an order that follows the
   underlying connectivity, pruning candidates by vertex label and by
   labelled-edge consistency with already-assigned neighbours. *)

module Bitset = Wlcq_util.Bitset
module Budget = Wlcq_robust.Budget

let assignment_order h pins =
  let under = Kgraph.underlying h in
  let n = Kgraph.num_vertices h in
  let seen = Array.make n false in
  let order = ref [] in
  let queue = Queue.create () in
  let push v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Queue.add v queue
    end
  in
  let drain () =
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      order := u :: !order;
      Wlcq_graph.Graph.iter_neighbours under u push
    done
  in
  List.iter (fun (u, _) -> push u) pins;
  drain ();
  for v = 0 to n - 1 do
    push v;
    drain ()
  done;
  Array.of_list (List.rev !order)

let iter ?(budget = Budget.unlimited) ?(pins = []) ?candidates h g f =
  let n = Kgraph.num_vertices h in
  let ng = Kgraph.num_vertices g in
  if n = 0 then f [||]
  else if ng = 0 then ()
  else begin
    let pinned = Array.make n (-1) in
    List.iter
      (fun (u, v) ->
         if u < 0 || u >= n || v < 0 || v >= ng then
           invalid_arg "Khom.iter: pin out of range";
         pinned.(u) <- v)
      pins;
    let order = assignment_order h pins in
    let position = Array.make n (-1) in
    Array.iteri (fun i u -> position.(u) <- i) order;
    let image = Array.make n (-1) in
    (* labelled constraints of u against earlier-assigned vertices:
       (earlier vertex, label, outgoing?) where outgoing means the h
       edge is u -l-> earlier *)
    let constraints =
      Array.map
        (fun u ->
           let earlier w = position.(w) < position.(u) in
           List.filter_map
             (fun (w, l) -> if earlier w then Some (w, l, true) else None)
             (Kgraph.out_edges h u)
           @ List.filter_map
             (fun (w, l) -> if earlier w then Some (w, l, false) else None)
             (Kgraph.in_edges h u))
        (Array.init n (fun i -> order.(i)))
    in
    let all = Bitset.full ng in
    let rec go i =
      Budget.tick_check budget;
      if i = n then f image
      else begin
        let u = order.(i) in
        let try_v v =
          let wanted = Kgraph.vertex_label h u in
          if (wanted = 0 || Kgraph.vertex_label g v = wanted)
             && List.for_all
               (fun (w, l, outgoing) ->
                  if outgoing then Kgraph.has_edge g v image.(w) l
                  else Kgraph.has_edge g image.(w) v l)
               constraints.(i)
          then begin
            image.(u) <- v;
            go (i + 1);
            image.(u) <- -1
          end
        in
        let base = match candidates with None -> all | Some c -> c u in
        if pinned.(u) >= 0 then begin
          if Bitset.mem base pinned.(u) then try_v pinned.(u)
        end
        else Bitset.iter try_v base
      end
    in
    go 0
  end

let count ?pins h g =
  let c = ref 0 in
  iter ?pins h g (fun _ -> incr c);
  !c

exception Found

let exists ?budget ?pins h g =
  try
    iter ?budget ?pins h g (fun _ -> raise Found);
    false
  with Found -> true

let is_homomorphism h g map =
  Array.length map = Kgraph.num_vertices h
  && begin
    let ok = ref true in
    Array.iteri
      (fun v img ->
         let wanted = Kgraph.vertex_label h v in
         if wanted <> 0 && Kgraph.vertex_label g img <> wanted then
           ok := false)
      map;
    List.iter
      (fun (u, v, l) ->
         if not (Kgraph.has_edge g map.(u) map.(v) l) then ok := false)
      (Kgraph.edges h);
    !ok
  end
