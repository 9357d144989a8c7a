let path n =
  Graph.create n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Builders.cycle: need at least 3 vertices";
  Graph.create n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let clique n =
  Graph.init n (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do add u v done
      done)

let star k =
  if k < 0 then invalid_arg "Builders.star: negative leaf count";
  Graph.create (k + 1) (List.init k (fun i -> (0, i + 1)))

let complete_bipartite a b =
  Graph.init (a + b) (fun add ->
      for u = 0 to a - 1 do
        for v = a to a + b - 1 do add u v done
      done)

let grid a b =
  let idx i j = (i * b) + j in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      if i + 1 < a then edges := (idx i j, idx (i + 1) j) :: !edges;
      if j + 1 < b then edges := (idx i j, idx i (j + 1)) :: !edges
    done
  done;
  Graph.create (a * b) !edges

let petersen () =
  (* outer 5-cycle 0..4, inner pentagram 5..9, spokes i - i+5 *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.create 10 (outer @ inner @ spokes)

let hypercube d =
  if d < 0 then invalid_arg "Builders.hypercube: negative dimension";
  let n = 1 lsl d in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.create n !edges

let matching k = Graph.create (2 * k) (List.init k (fun i -> (2 * i, (2 * i) + 1)))

let two_triangles () =
  Graph.create 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]

let wheel n =
  if n < 3 then invalid_arg "Builders.wheel: need a cycle of length >= 3";
  let rim = (n, 1) :: List.init (n - 1) (fun i -> (i + 1, i + 2)) in
  let spokes = List.init n (fun i -> (0, i + 1)) in
  Graph.create (n + 1) (rim @ spokes)

let rook () =
  let idx i j = (4 * i) + j in
  let edges = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      for i' = 0 to 3 do
        for j' = 0 to 3 do
          let same_row = i = i' && j <> j' in
          let same_col = j = j' && i <> i' in
          if (same_row || same_col) && idx i j < idx i' j' then
            edges := (idx i j, idx i' j') :: !edges
        done
      done
    done
  done;
  Graph.create 16 !edges

let shrikhande () =
  let idx i j = (4 * i) + j in
  let diffs = [ (1, 0); (3, 0); (0, 1); (0, 3); (1, 1); (3, 3) ] in
  let edges = ref [] in
  for i = 0 to 3 do
    for j = 0 to 3 do
      List.iter
        (fun (di, dj) ->
           let i' = (i + di) mod 4 and j' = (j + dj) mod 4 in
           if idx i j < idx i' j' then edges := (idx i j, idx i' j') :: !edges)
        diffs
    done
  done;
  Graph.create 16 !edges

let tree_of_parents parents =
  let n = Array.length parents in
  let edges = ref [] in
  Array.iteri
    (fun i p ->
       if i = 0 then begin
         if p <> -1 then
           invalid_arg "Builders.tree_of_parents: root parent must be -1"
       end
       else if p < 0 || p >= i then
         invalid_arg "Builders.tree_of_parents: parent must precede child"
       else edges := (p, i) :: !edges)
    parents;
  Graph.create n !edges
