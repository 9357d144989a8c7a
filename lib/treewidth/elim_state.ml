(* The elimination core: a graph being eliminated, held as flat words.

   One [int array] holds every vertex's adjacency row, [nw] words each
   in [Bitset]'s layout (row [v] starts at word [v * nw]), followed by
   the [nw] words of the live set.  Rows may keep bits of eliminated
   vertices; every query masks them with the live words.  Copying a
   state is one [Array.copy]. *)

open Wlcq_graph
module Bitset = Wlcq_util.Bitset

let bpw = Bitset.bits_per_word
let popcount = Bitset.popcount

type t = { n : int; nw : int; words : int array }

let of_graph g =
  let n = Graph.num_vertices g in
  let nw = (n + bpw - 1) / bpw in
  let words = Graph.adjacency_words ~spare_rows:1 g in
  for v = 0 to n - 1 do
    let k = (n * nw) + (v / bpw) in
    words.(k) <- words.(k) lor (1 lsl (v mod bpw))
  done;
  { n; nw; words }

let copy s = { s with words = Array.copy s.words }

(* the vertex at the single set bit [b] of word [i] *)
let vertex i b = (i * bpw) + popcount (b - 1)

let is_live s v =
  s.words.((s.n * s.nw) + (v / bpw)) land (1 lsl (v mod bpw)) <> 0

let degree s v =
  let { n; nw; words } = s in
  let r = v * nw and l = n * nw in
  let d = ref 0 in
  for i = 0 to nw - 1 do
    d := !d + popcount (words.(r + i) land words.(l + i))
  done;
  !d

(* Pairs of live neighbours of [v] that are not adjacent: the fill-in
   eliminating [v] would add.  Each missing pair is seen from both
   ends. *)
let fill_count s v =
  let { n; nw; words } = s in
  let r = v * nw and l = n * nw in
  let missing = ref 0 in
  (* lint: allow R7 one row scan per live neighbour: O(n·nw) words *)
  for i = 0 to nw - 1 do
    let x = ref (words.(r + i) land words.(l + i)) in
    (* lint: allow R7 one step per live neighbour in word [i] *)
    while !x <> 0 do
      let b = !x land - !x in
      let ra = vertex i b * nw in
      for j = 0 to nw - 1 do
        let miss = words.(r + j) land words.(l + j) land lnot words.(ra + j) in
        let miss = if j = i then miss land lnot b else miss in
        missing := !missing + popcount miss
      done;
      x := !x lxor b
    done
  done;
  !missing / 2

(* Live neighbourhood of [v] is a clique: [fill_count s v = 0], but
   stopping at the first missing pair.  The search asks this of every
   live vertex at every node; with [fill_count s v = 0] instead, the
   1,605-node search on a 16-vertex G(n, 0.35) graph and the
   86,139-node one on G(22, 0.3) ran 6-11% slower. *)
let is_simplicial s v =
  let { n; nw; words } = s in
  let r = v * nw and l = n * nw in
  let ok = ref true and i = ref 0 in
  while !ok && !i < nw do
    let x = ref (words.(r + !i) land words.(l + !i)) in
    while !ok && !x <> 0 do
      let b = !x land - !x in
      let ra = vertex !i b * nw in
      for j = 0 to nw - 1 do
        let miss = words.(r + j) land words.(l + j) land lnot words.(ra + j) in
        let miss = if j = !i then miss land lnot b else miss in
        if miss <> 0 then ok := false
      done;
      x := !x lxor b
    done;
    incr i
  done;
  !ok

let kill s v =
  let k = (s.n * s.nw) + (v / bpw) in
  s.words.(k) <- s.words.(k) land lnot (1 lsl (v mod bpw))

(* Eliminate [v]: its live neighbours become a clique, then [v] leaves
   the live set. *)
let eliminate s v =
  let { n; nw; words } = s in
  let r = v * nw and l = n * nw in
  (* lint: allow R7 one row union per live neighbour: O(n·nw) words *)
  for i = 0 to nw - 1 do
    let x = ref (words.(r + i) land words.(l + i)) in
    (* lint: allow R7 one step per live neighbour in word [i] *)
    while !x <> 0 do
      let b = !x land - !x in
      let ra = vertex i b * nw in
      for j = 0 to nw - 1 do
        words.(ra + j) <- words.(ra + j) lor (words.(r + j) land words.(l + j))
      done;
      words.(ra + i) <- words.(ra + i) land lnot b;
      x := !x lxor b
    done
  done;
  kill s v

(* Contract [v] into its live neighbour [w]: [w] takes over [v]'s live
   neighbours, then [v] leaves the live set. *)
let contract s v w =
  let { n; nw; words } = s in
  let r = v * nw and l = n * nw and rw = w * nw in
  let wb = 1 lsl (w mod bpw) in
  for i = 0 to nw - 1 do
    let x = ref (words.(r + i) land words.(l + i)) in
    words.(rw + i) <- words.(rw + i) lor !x;
    while !x <> 0 do
      let b = !x land - !x in
      let ru = (vertex i b * nw) + (w / bpw) in
      words.(ru) <- words.(ru) lor wb;
      x := !x lxor b
    done
  done;
  words.(rw + (w / bpw)) <- words.(rw + (w / bpw)) land lnot wb;
  kill s v

(* [fold_row f s base acc] folds [f] over the live members of the row
   starting at word [base], in increasing order. *)
let fold_row f s base acc =
  let { n; nw; words } = s in
  let l = n * nw in
  let acc = ref acc in
  (* lint: allow R7 one step per live member of one row *)
  for i = 0 to nw - 1 do
    let x = ref (words.(base + i) land words.(l + i)) in
    while !x <> 0 do
      let b = !x land - !x in
      acc := f (vertex i b) !acc;
      x := !x lxor b
    done
  done;
  !acc

let fold_live_neighbours f s v acc = fold_row f s (v * s.nw) acc
let fold_live f s acc = fold_row f s (s.n * s.nw) acc

let live_list s = List.rev (fold_live List.cons s [])

let live_words s = Array.sub s.words (s.n * s.nw) s.nw
