module Bitset = Wlcq_util.Bitset
module Ordering = Wlcq_util.Ordering

type t = { n : int; adj : Bitset.t array; m : int }

let empty n =
  if n < 0 then invalid_arg "Graph.empty: negative vertex count";
  { n; adj = Array.init n (fun _ -> Bitset.create n); m = 0 }

let init n fill =
  let g = empty n in
  fill (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.create: endpoint out of range";
      if u = v then invalid_arg "Graph.create: self-loop";
      Bitset.set g.adj.(u) v;
      Bitset.set g.adj.(v) u);
  let m = ref 0 in
  Array.iter (fun s -> m := !m + Bitset.cardinal s) g.adj;
  { g with m = !m / 2 }

let create n edge_list =
  init n (fun add -> List.iter (fun (u, v) -> add u v) edge_list)

let num_vertices g = g.n
let num_edges g = g.m

let adjacent g u v = Bitset.mem g.adj.(u) v
let degree g v = Bitset.cardinal g.adj.(v)
let neighbours g v = Bitset.copy g.adj.(v)
let neighbours_list g v = Bitset.to_list g.adj.(v)
let iter_neighbours g v f = Bitset.iter f g.adj.(v)
let fold_neighbours g v f init = Bitset.fold f g.adj.(v) init

let adjacency_words ?(spare_rows = 0) g =
  let bpw = Bitset.bits_per_word in
  let nw = (g.n + bpw - 1) / bpw in
  let words = Array.make ((g.n + spare_rows) * nw) 0 in
  (* lint: allow R7 one pass over the edges *)
  for v = 0 to g.n - 1 do
    Bitset.iter
      (fun u ->
         let k = (v * nw) + (u / bpw) in
         words.(k) <- words.(k) lor (1 lsl (u mod bpw)))
      g.adj.(v)
  done;
  words

let iter_edges g f =
  (* lint: allow R7 single O(n + m) pass; budgeted callers poll around
     whole-graph sweeps, not inside them *)
  for u = 0 to g.n - 1 do
    Bitset.iter (fun v -> if u < v then f u v) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let vertices g = List.init g.n (fun i -> i)

let equal g1 g2 =
  g1.n = g2.n && Array.for_all2 Bitset.equal g1.adj g2.adj

let compare g1 g2 =
  let c = Int.compare g1.n g2.n in
  if c <> 0 then c else Ordering.array Bitset.compare g1.adj g2.adj

let hash g =
  Array.fold_left
    (fun h s -> Ordering.hash_mix h (Bitset.hash s))
    (Ordering.hash_int g.n) g.adj

let degree_sequence g =
  List.sort (fun a b -> Int.compare b a) (List.init g.n (degree g))

let max_degree g = List.fold_left max 0 (List.init g.n (degree g))

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, edges=[%a])" g.n
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (u, v) -> Format.fprintf ppf "(%d,%d)" u v))
    (edges g)

let to_string g = Format.asprintf "%a" pp g
