module Prng = Wlcq_util.Prng

let gnp rng n p =
  Graph.init n (fun add ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Prng.float rng < p then add u v
        done
      done)

let random_tree rng n =
  if n <= 0 then Graph.empty 0
  else begin
    let parents = Array.make n (-1) in
    for v = 1 to n - 1 do parents.(v) <- Prng.int rng v done;
    Builders.tree_of_parents parents
  end

let random_connected rng n p =
  let tree = random_tree rng n in
  let extra = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng < p then extra := (u, v) :: !extra
    done
  done;
  Ops.add_edges tree !extra

let random_regular_ish rng n d =
  let deg = Array.make n 0 in
  let edges = ref [] in
  let adjacent u v = List.mem (min u v, max u v) !edges in
  let attempts = n * d * 10 in
  let count = ref 0 in
  let i = ref 0 in
  let target = (n * d) / 2 in
  while !i < attempts && !count < target do
    incr i;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && deg.(u) < d && deg.(v) < d && not (adjacent u v) then begin
      edges := (min u v, max u v) :: !edges;
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr count
    end
  done;
  Graph.create n !edges

let random_bipartite rng a b p =
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      if Prng.float rng < p then edges := (u, v) :: !edges
    done
  done;
  Graph.create (a + b) !edges
