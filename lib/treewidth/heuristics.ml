open Wlcq_graph
module E = Elim_state
module Budget = Wlcq_robust.Budget

(* Greedy elimination: always eliminate the first live vertex of least
   [score] over the current (filled) graph, polling [budget] once per
   step.  Returns the width reached (the largest degree at
   elimination) and the order. *)
let greedy ~budget score g =
  let s = E.of_graph g in
  let n = s.E.n in
  let order = Array.make n 0 in
  let width = ref (-1) in
  for k = 0 to n - 1 do
    Budget.check budget;
    let best = ref (-1) in
    let best_score = ref max_int in
    for v = 0 to n - 1 do
      if E.is_live s v then begin
        let sc = score s v in
        if sc < !best_score then begin
          best := v;
          best_score := sc
        end
      end
    done;
    let v = !best in
    width := max !width (E.degree s v);
    E.eliminate s v;
    order.(k) <- v
  done;
  (!width, Array.to_list order)

let min_degree_order ?(budget = Budget.unlimited) g = greedy ~budget E.degree g
let min_fill_order ?(budget = Budget.unlimited) g = greedy ~budget E.fill_count g

let upper_bound_order g =
  let ((w_md, _) as md) = min_degree_order g in
  let ((w_mf, _) as mf) = min_fill_order g in
  if w_mf <= w_md then mf else md

let upper_bound g = fst (upper_bound_order g)

(* MMD+ lower bound: repeatedly contract a minimum-degree vertex into
   its lowest-degree neighbour; the running maximum of minimum degrees
   lower-bounds the treewidth (minors do not increase treewidth, and
   min-degree lower-bounds the treewidth of each minor). *)
let lower_bound ?(budget = Budget.unlimited) g =
  let n = Graph.num_vertices g in
  if n = 0 then -1
  else begin
    let s = E.of_graph g in
    let bound = ref 0 in
    for _ = 2 to n do
      Budget.check budget;
      (* first live vertex of minimum degree *)
      let v, vd =
        E.fold_live
          (fun u ((_, bd) as acc) ->
             let d = E.degree s u in
             if d < bd then (u, d) else acc)
          s (-1, max_int)
      in
      bound := max !bound vd;
      if vd > 0 then begin
        (* its first live neighbour of minimum degree *)
        let w, _ =
          E.fold_live_neighbours
            (fun u ((_, bd) as acc) ->
               let d = E.degree s u in
               if d < bd then (u, d) else acc)
            s v (-1, max_int)
        in
        E.contract s v w
      end
      else E.kill s v
    done;
    !bound
  end
