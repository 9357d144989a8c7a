(* Isomorphism, automorphisms and canonical labelling on one
   individualisation–refinement (I/R) search, in the style of nauty and
   Traces (McKay–Piperno, "Practical graph isomorphism II", 2014).

   - An ordered partition lives in flat arrays: [lab] (the vertex at
     each position), [pos] (its inverse), [cell] (the start of the cell
     holding a position) and [cend] (the end of the cell starting at a
     position).
   - Refinement to the coarsest equitable partition drains a FIFO queue
     of splitter cells.  A splitter counts, for every vertex, its
     neighbours inside the splitter; the touched cells are split by
     that count in position order, fragments by increasing count.  No
     step looks at a vertex id, so isomorphic inputs with corresponding
     colourings take identical steps, and the hash of those steps (the
     trace) is an isomorphism invariant.
   - The search individualises each vertex of the first non-singleton
     cell in turn and refines again.  A discrete partition is a leaf, a
     labelling, ranked by its trace sequence and then by its canonical
     adjacency words; the least leaf is the canonical form.
   - A leaf equal to the first or the best leaf yields an automorphism,
     and the search returns to where the two paths part.  Children are
     tried in increasing vertex order, and a child that is not the
     least member of its orbit, under the automorphisms found so far
     that fix the current path, is skipped: a lesser member was tried
     before it.
   - The partition stack takes O(n) words per call, as nauty's does:
     every cell start records the depth that split it off, and
     returning to a depth merges the younger cells back. *)

module Perm = Wlcq_util.Perm
module Ordering = Wlcq_util.Ordering
module Budget = Wlcq_robust.Budget

exception Canonical_limit

let mix = Ordering.hash_mix
let bpw = Wlcq_util.Bitset.bits_per_word

(* ------------------------------------------------------------------ *)
(* Ordered partitions                                                  *)
(* ------------------------------------------------------------------ *)

type part = {
  n : int;
  start : int array;  (* the neighbours of [v] are nbr.(start.(v) .. start.(v+1) - 1) *)
  nbr : int array;
  lab : int array;
  pos : int array;
  cell : int array;
  cend : int array;
  birth : int array;  (* per cell start: the search depth that split it off *)
  (* lint: domain-local per-call state: every search, refinement and
     isomorphism test allocates its own partition *)
  mutable cells : int;
  count : int array;  (* per vertex: neighbours in the current splitter *)
  wbuf : int array;  (* the current splitter's vertices *)
  marked : int array;  (* per cell start: touched vertices at the cell's end *)
  tcells : int array;  (* the starts of the touched cells *)
  queue : int array;  (* circular FIFO of splitter cell starts *)
  inq : bool array;
  (* lint: domain-local per-call state, as [cells] *)
  mutable qhead : int;
  (* lint: domain-local per-call state, as [cells] *)
  mutable qlen : int;
}

(* One partition over the disjoint union of [graphs], vertices numbered
   consecutively. *)
let make_part graphs =
  let n = Array.fold_left (fun acc g -> acc + Graph.num_vertices g) 0 graphs in
  let m2 = Array.fold_left (fun acc g -> acc + (2 * Graph.num_edges g)) 0 graphs in
  let start = Array.make (n + 1) 0 and nbr = Array.make m2 0 in
  let k = ref 0 and base = ref 0 in
  Array.iter
    (fun g ->
       let b = !base in
       (* lint: allow R7 one pass over the edges per search, before its
          first node *)
       for v = 0 to Graph.num_vertices g - 1 do
         Graph.iter_neighbours g v (fun w ->
             nbr.(!k) <- b + w;
             incr k);
         start.(b + v + 1) <- !k
       done;
       base := b + Graph.num_vertices g)
    graphs;
  let ints () = Array.make n 0 in
  {
    n; start; nbr; lab = ints (); pos = ints (); cell = ints ();
    cend = ints (); birth = ints (); cells = 0; count = ints (); wbuf = ints ();
    marked = ints (); tcells = ints (); queue = ints ();
    inq = Array.make n false; qhead = 0; qlen = 0;
  }

let enqueue p s =
  if not p.inq.(s) then begin
    let slot = p.qhead + p.qlen in
    p.queue.(if slot >= p.n then slot - p.n else slot) <- s;
    p.qlen <- p.qlen + 1;
    p.inq.(s) <- true
  end

(* Sort [a.(s .. e-1)] by [key.(a.(i))], ascending: insertion sort in
   place on short runs (most cells), [Array.sort] on a copy of long
   ones that are not sorted already (a uniform colouring is). *)
let sort_by key a s e =
  if e - s <= 16 then
    (* lint: allow R7 sorts one cell of one refinement; the search polls
       its budget once per node, between refinements *)
    for i = s + 1 to e - 1 do
      let x = a.(i) in
      let kx = key.(x) in
      let j = ref (i - 1) in
      while !j >= s && key.(a.(!j)) > kx do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let i = ref (s + 1) in
    while !i < e && key.(a.(!i - 1)) <= key.(a.(!i)) do incr i done;
    if !i < e then begin
      let run = Array.sub a s (e - s) in
      Array.sort (fun x y -> Int.compare key.(x) key.(y)) run;
      Array.blit run 0 a s (e - s)
    end
  end

(* The first partition: one cell per colour value, in increasing value
   order, every cell queued as a splitter. *)
let seed p colour =
  let n = p.n in
  for i = 0 to n - 1 do p.lab.(i) <- i done;
  sort_by colour p.lab 0 n;
  p.cells <- 0;
  p.qhead <- 0;
  p.qlen <- 0;
  let i = ref 0 in
  (* lint: allow R7 one pass over the vertices per search, before its
     first node *)
  while !i < n do
    let c = colour.(p.lab.(!i)) in
    let j = ref (!i + 1) in
    while !j < n && colour.(p.lab.(!j)) = c do incr j done;
    for q = !i to !j - 1 do
      p.pos.(p.lab.(q)) <- q;
      p.cell.(q) <- !i
    done;
    p.cend.(!i) <- !j;
    p.birth.(!i) <- 0;
    p.cells <- p.cells + 1;
    enqueue p !i;
    i := !j
  done

(* Split the cell starting at [s] by [count], whose touched vertices
   sit at its end, at search depth [lvl]; returns [h] mixed with the
   fragments' positions, counts and sizes.  A queued cell queues all
   its fragments, any other all but its first largest (Hopcroft).
   Only the touched vertices move, so a split costs their number, not
   the cell's size. *)
let split p lvl s h =
  let e = p.cend.(s) in
  let t0 = e - p.marked.(s) in
  p.marked.(s) <- 0;
  sort_by p.count p.lab t0 e;
  for q = t0 to e - 1 do p.pos.(p.lab.(q)) <- q done;
  let h =
    if p.count.(p.lab.(s)) = p.count.(p.lab.(e - 1)) then h
    else begin
      let h = ref (mix h s) and big = ref s and bigsize = ref 0 in
      let f = ref s in
      (* lint: allow R7 one pass over the touched part of one cell *)
      while !f < e do
        let c = p.count.(p.lab.(!f)) in
        (* the untouched vertices, count 0, form the first fragment *)
        let j = ref (if !f < t0 then t0 else !f + 1) in
        while !j < e && p.count.(p.lab.(!j)) = c do incr j done;
        if !f > s then begin
          for q = !f to !j - 1 do p.cell.(q) <- !f done;
          p.birth.(!f) <- lvl;
          p.cells <- p.cells + 1
        end;
        p.cend.(!f) <- !j;
        if !j - !f > !bigsize then begin
          big := !f;
          bigsize := !j - !f
        end;
        h := mix (mix !h c) (!j - !f);
        f := !j
      done;
      let queued = p.inq.(s) in
      let f = ref s in
      while !f < e do
        if queued || !f <> !big then enqueue p !f;
        f := p.cend.(!f)
      done;
      !h
    end
  in
  for q = t0 to e - 1 do p.count.(p.lab.(q)) <- 0 done;
  h

(* Count each vertex's neighbours in the splitter cell [w].  A vertex
   touched for the first time moves into the touched tail of its cell;
   returns the number of touched cells, listed in [tcells]. *)
let count_from p w =
  let len = p.cend.(w) - w in
  (* the splitter's own vertices may move while it is read *)
  Array.blit p.lab w p.wbuf 0 len;
  let k = ref 0 in
  (* lint: allow R7 one pass over the edges of one splitter cell *)
  for i = 0 to len - 1 do
    let u = p.wbuf.(i) in
    for j = p.start.(u) to p.start.(u + 1) - 1 do
      let v = p.nbr.(j) in
      let c = p.count.(v) in
      if c = 0 then begin
        let s = p.cell.(p.pos.(v)) in
        let m = p.marked.(s) in
        if m = 0 then begin
          p.tcells.(!k) <- s;
          incr k
        end;
        let t = p.cend.(s) - 1 - m and at = p.pos.(v) in
        let x = p.lab.(t) in
        p.lab.(at) <- x;
        p.pos.(x) <- at;
        p.lab.(t) <- v;
        p.pos.(v) <- t;
        p.marked.(s) <- m + 1
      end;
      p.count.(v) <- c + 1
    done
  done;
  !k

(* Put the [k] touched cells of [tcells] in position order: by
   insertion sort when few, by one walk over the partition when
   many. *)
let sort_cells p k =
  if k * k > p.n then begin
    let j = ref 0 and s = ref 0 in
    while !s < p.n do
      if p.marked.(!s) > 0 then begin
        p.tcells.(!j) <- !s;
        incr j
      end;
      s := p.cend.(!s)
    done
  end
  else
    (* lint: allow R7 insertion sort of k touched cells, k * k <= n *)
    for i = 1 to k - 1 do
      let x = p.tcells.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && p.tcells.(!j) > x do
        p.tcells.(!j + 1) <- p.tcells.(!j);
        decr j
      done;
      p.tcells.(!j + 1) <- x
    done

(* Refine to the coarsest equitable partition below the current one,
   at search depth [lvl]; returns [h] mixed with every split and the
   final cell count: the level's trace. *)
let refine_part p lvl h =
  let h = ref h in
  (* lint: allow R7 one refinement is O((n + m) log n) steps; the search
     polls its node limit and budget once per node, between refinements *)
  while p.qlen > 0 do
    let w = p.queue.(p.qhead) in
    p.qhead <- (if p.qhead + 1 = p.n then 0 else p.qhead + 1);
    p.qlen <- p.qlen - 1;
    p.inq.(w) <- false;
    let k = count_from p w in
    sort_cells p k;
    (* lint: allow R7 the split passes of one refinement, O((n + m) log n)
       steps in all, between the search's per-node polls *)
    for j = 0 to k - 1 do h := split p lvl p.tcells.(j) !h done
  done;
  mix !h p.cells

(* Make [v] a singleton cell at the front of its cell, at search depth
   [lvl], and queue it. *)
let individualise p lvl v =
  let i = p.pos.(v) in
  let s = p.cell.(i) in
  let e = p.cend.(s) in
  let u = p.lab.(s) in
  p.lab.(i) <- u;
  p.pos.(u) <- i;
  p.lab.(s) <- v;
  p.pos.(v) <- s;
  p.cend.(s) <- s + 1;
  p.cend.(s + 1) <- e;
  p.birth.(s + 1) <- lvl;
  for q = s + 1 to e - 1 do p.cell.(q) <- s + 1 done;
  p.cells <- p.cells + 1;
  enqueue p s

(* Return to the partition of search depth [d]: every cell split off
   deeper merges back into the cell before it.  [lab] and [pos] stay as
   they are, since refinement only moves vertices within their cells
   and no step depends on the order inside a cell. *)
let restore p d =
  let n = p.n in
  let s = ref 0 and cells = ref 0 in
  while !s < n do
    let e = ref p.cend.(!s) in
    while !e < n && p.birth.(!e) > d do e := p.cend.(!e) done;
    if p.cend.(!s) <> !e then begin
      p.cend.(!s) <- !e;
      for q = !s to !e - 1 do p.cell.(q) <- !s done
    end;
    incr cells;
    s := !e
  done;
  p.cells <- !cells

(* Row [i] of the canonical adjacency holds the positions of the
   neighbours of the vertex at position [i]. *)
let leaf_words p nw buf =
  Array.fill buf 0 (Array.length buf) 0;
  for i = 0 to p.n - 1 do
    let u = p.lab.(i) in
    let row = i * nw in
    for k = p.start.(u) to p.start.(u + 1) - 1 do
      let j = p.pos.(p.nbr.(k)) in
      let w = row + (j / bpw) in
      buf.(w) <- buf.(w) lor (1 lsl (j mod bpw))
    done
  done

let compare_words a b =
  let len = Array.length a in
  let i = ref 0 in
  while !i < len && a.(!i) = b.(!i) do incr i done;
  if !i = len then 0 else Int.compare a.(!i) b.(!i)

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

(* The least leaf: its labelling and canonical adjacency words, plus
   the automorphisms the search found on the way (they
   generate the automorphism group of the coloured graph). *)
type leaf = {
  l_lab : int array;
  l_words : int array;
  l_gens : Perm.t list;
}

(* Union-find over [uf], each root the least member of its set. *)
let rec find uf v =
  let u = uf.(v) in
  if u = v then v
  else begin
    let w = uf.(u) in
    uf.(v) <- w;
    if w = u then u else find uf w
  end

(* Remove and return the least member of the bitset [bits]; -1 when it
   is empty. *)
let pop_least bits =
  let nw = Array.length bits in
  let i = ref 0 in
  while !i < nw && bits.(!i) = 0 do incr i done;
  if !i = nw then -1
  else begin
    let w = bits.(!i) in
    let b = w land (-w) in
    bits.(!i) <- w lxor b;
    (!i * bpw) + Wlcq_util.Bitset.popcount (b - 1)
  end

(* [search ~budget ~limit p] runs the I/R search from the seeded
   partition [p].  Every node counts towards [limit] and ticks
   [budget]; either running out raises [Canonical_limit]. *)
let search ~budget ~limit p =
  let n = p.n in
  let nw = (n + bpw - 1) / bpw in
  let ints k = Array.make k 0 in
  let trace = ints (n + 1) and path = ints (n + 1) in
  (* [eqf.(d)]: the path's traces equal the first leaf's down to [d];
     [cmpb.(d)]: how its trace prefix compares with the best leaf's *)
  let eqf = Array.make (n + 1) true and cmpb = ints (n + 1) in
  let first_lab = ints n and first_words = ints (n * nw) in
  let first_trace = ints (n + 1) and first_path = ints (n + 1) in
  let best_lab = ints n and best_words = ref (ints (n * nw)) in
  let best_trace = ints (n + 1) and best_path = ints (n + 1) in
  let cur_words = ref (ints (n * nw)) in
  let first_depth = ref (-1) and best_depth = ref (-1) in
  let gens = ref [] and ngens = ref 0 in
  (* per level, allocated on first visit: the target cell's vertices
     not tried yet, as a bitset *)
  let todo = Array.make (n + 1) [||] in
  (* the orbits under the found automorphisms that fix the first
     [orb_depth] vertices of the path, while [orb_gens] automorphisms
     are known *)
  let orb = ints n and orb_depth = ref (-1) and orb_gens = ref 0 in
  let nodes = ref 0 and jump = ref max_int in
  let orbits d =
    if !orb_depth <> d || !orb_gens <> !ngens then begin
      orb_depth := d;
      orb_gens := !ngens;
      for v = 0 to n - 1 do orb.(v) <- v done;
      List.iter
        (fun (g : Perm.t) ->
           let fixes = ref true in
           for i = 0 to d - 1 do
             if g.(path.(i)) <> path.(i) then fixes := false
           done;
           if !fixes then
             for v = 0 to n - 1 do
               let a = find orb v and b = find orb g.(v) in
               if a < b then orb.(b) <- a else if b < a then orb.(a) <- b
             done)
        !gens
    end
  in
  (* children come in increasing vertex order, so a child that is not
     the least member of its orbit has a lesser member tried before it *)
  let least_in_orbit d v =
    !ngens = 0
    || begin
      orbits d;
      find orb v = v
    end
  in
  let automorphism ref_lab ref_path d =
    let g = ints n in
    for i = 0 to n - 1 do g.(ref_lab.(i)) <- p.lab.(i) done;
    gens := g :: !gens;
    incr ngens;
    (* the current child where the two paths part maps onto the
       reference's, already explored: resume at its parent *)
    let j = ref 0 in
    while !j < d && path.(!j) = ref_path.(!j) do incr j done;
    jump := !j
  in
  let leaf d =
    leaf_words p nw !cur_words;
    if !first_depth < 0 then begin
      first_depth := d;
      best_depth := d;
      Array.blit p.lab 0 first_lab 0 n;
      Array.blit p.lab 0 best_lab 0 n;
      Array.blit !cur_words 0 first_words 0 (n * nw);
      Array.blit !cur_words 0 !best_words 0 (n * nw);
      Array.blit trace 0 first_trace 0 (d + 1);
      Array.blit trace 0 best_trace 0 (d + 1);
      Array.blit path 0 first_path 0 d;
      Array.blit path 0 best_path 0 d
    end
    else if eqf.(d) && d = !first_depth
            && compare_words !cur_words first_words = 0 then
      automorphism first_lab first_path d
    else begin
      let c =
        if cmpb.(d) <> 0 then cmpb.(d)
        else if d < !best_depth then -1
        else compare_words !cur_words !best_words
      in
      if c = 0 then automorphism best_lab best_path d
      else if c < 0 then begin
        best_depth := d;
        Array.blit p.lab 0 best_lab 0 n;
        let w = !best_words in
        best_words := !cur_words;
        cur_words := w;
        Array.blit trace 0 best_trace 0 (d + 1);
        Array.blit path 0 best_path 0 d;
        Array.fill cmpb 0 (d + 1) 0
      end
    end
  in
  let rec visit d =
    incr nodes;
    Budget.tick budget;
    if !nodes > limit || not (Budget.live budget) then raise Canonical_limit;
    if !first_depth >= 0 then begin
      eqf.(d) <- eqf.(d - 1) && d <= !first_depth && first_trace.(d) = trace.(d);
      cmpb.(d) <-
        (if cmpb.(d - 1) <> 0 then cmpb.(d - 1)
         else if d > !best_depth then 1
         else Int.compare trace.(d) best_trace.(d))
    end;
    if !first_depth >= 0 && (not eqf.(d)) && cmpb.(d) > 0 then ()
    else if p.cells = n then leaf d
    else begin
      let s = ref 0 in
      while p.cend.(!s) - !s = 1 do s := p.cend.(!s) done;
      let s = !s in
      if Array.length todo.(d) = 0 then todo.(d) <- ints nw;
      let set = todo.(d) in
      Array.fill set 0 nw 0;
      for q = s to p.cend.(s) - 1 do
        let v = p.lab.(q) in
        set.(v / bpw) <- set.(v / bpw) lor (1 lsl (v mod bpw))
      done;
      let explored = ref false and v = ref (pop_least set) in
      while !v >= 0 && !jump >= d do
        if (not !explored) || least_in_orbit d !v then begin
          if !explored then restore p d;
          explored := true;
          path.(d) <- !v;
          (* deeper orbits depend on the path through [d] *)
          if !orb_depth > d then orb_depth := -1;
          individualise p (d + 1) !v;
          trace.(d + 1) <- refine_part p (d + 1) (mix trace.(d) s);
          visit (d + 1);
          if !jump = d then jump := max_int
        end;
        v := pop_least set
      done
    end
  in
  trace.(0) <- refine_part p 0 (mix 0x5eed n);
  visit 0;
  { l_lab = best_lab; l_words = !best_words; l_gens = !gens }

(* The search on [g] seeded with [colour]. *)
let run ?(budget = Budget.unlimited) ?(limit = max_int) g colour =
  let p = make_part [| g |] in
  seed p colour;
  search ~budget ~limit p

let uniform g = Array.make (Graph.num_vertices g) 0

let inverse lab =
  let perm = Array.make (Array.length lab) 0 in
  Array.iteri (fun i v -> perm.(v) <- i) lab;
  perm

(* ------------------------------------------------------------------ *)
(* Canonical labelling                                                  *)
(* ------------------------------------------------------------------ *)

type canonical = {
  canon : Graph.t;
  perm : Perm.t;
  digest : string;
}

(* The digest covers the vertex count, the colour values in canonical
   order (the leaf lists the vertices by colour) and the canonical
   adjacency words, eight bytes each: two coloured graphs share it
   exactly when an isomorphism maps every vertex to one of the same
   colour value. *)
let digest_of colour (r : leaf) =
  let n = Array.length r.l_lab in
  let buf = Buffer.create (24 + (8 * (n + Array.length r.l_words))) in
  Buffer.add_string buf "wlcq-canon-v3;";
  Buffer.add_int64_le buf (Int64.of_int n);
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int colour.(v))) r.l_lab;
  Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) r.l_words;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let colouring g = function
  | None -> uniform g
  | Some a ->
    if Array.length a <> Graph.num_vertices g then
      invalid_arg "Iso.canonical_form: colouring size mismatch";
    a

let canonical_form ?budget ?init ?limit g =
  let colour = colouring g init in
  let r = run ?budget ?limit g colour in
  let perm = inverse r.l_lab in
  { canon = Ops.relabel g perm; perm; digest = digest_of colour r }

let canonical_digest ?budget ?limit g =
  let colour = uniform g in
  let r = run ?budget ?limit g colour in
  (digest_of colour r, inverse r.l_lab)

(* ------------------------------------------------------------------ *)
(* Isomorphism                                                          *)
(* ------------------------------------------------------------------ *)

(* Two coloured graphs are isomorphic exactly when their least leaves
   carry the same adjacency words and the same colour values position
   by position; then [lab2 ∘ lab1⁻¹] is an isomorphism. *)
let matching ?budget g1 c1 g2 c2 =
  let n = Graph.num_vertices g1 in
  if n <> Graph.num_vertices g2 || Graph.num_edges g1 <> Graph.num_edges g2
  then None
  else begin
    let r1 = run ?budget g1 c1 in
    let r2 = run ?budget g2 c2 in
    let same = ref (compare_words r1.l_words r2.l_words = 0) in
    for i = 0 to n - 1 do
      if c1.(r1.l_lab.(i)) <> c2.(r2.l_lab.(i)) then same := false
    done;
    if not !same then None
    else begin
      let p = Array.make n 0 in
      for i = 0 to n - 1 do p.(r1.l_lab.(i)) <- r2.l_lab.(i) done;
      Some p
    end
  end

let find_isomorphism g1 g2 = matching g1 (uniform g1) g2 (uniform g2)

let isomorphic ?(budget = Budget.unlimited) g1 g2 =
  match matching ~budget g1 (uniform g1) g2 (uniform g2) with
  | m -> Option.is_some m
  | exception Canonical_limit ->
    (* no node limit: only the budget trips the search *)
    Budget.check budget;
    raise Canonical_limit

let find_isomorphism_fixing g1 g2 pins =
  let c1 = uniform g1 and c2 = uniform g2 in
  List.iteri
    (fun i (u, v) ->
       c1.(u) <- i + 1;
       c2.(v) <- i + 1)
    pins;
  matching g1 c1 g2 c2

let find_isomorphism_respecting g1 init1 g2 init2 =
  if Array.length init1 <> Graph.num_vertices g1
     || Array.length init2 <> Graph.num_vertices g2 then
    invalid_arg "Iso.find_isomorphism_respecting: colouring size mismatch";
  matching g1 init1 g2 init2

(* ------------------------------------------------------------------ *)
(* Automorphisms and colour refinement                                 *)
(* ------------------------------------------------------------------ *)

(* The group the search's automorphisms generate, closed breadth-first
   and listed in lexicographic order. *)
let automorphisms g =
  let n = Graph.num_vertices g in
  let gens = if n = 0 then [] else (run g (uniform g)).l_gens in
  let seen = Ordering.Int_array_tbl.create 64 in
  let queue = Queue.create () in
  let id = Perm.identity n in
  Ordering.Int_array_tbl.replace seen id ();
  Queue.add id queue;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun s ->
         let y = Perm.compose s x in
         if not (Ordering.Int_array_tbl.mem seen y) then begin
           Ordering.Int_array_tbl.replace seen y ();
           Queue.add y queue
         end)
      gens
  done;
  List.sort Ordering.int_array
    (Ordering.Int_array_tbl.fold (fun p () acc -> p :: acc) seen [])

(* Colours are cell indices in position order. *)
let colours_of p =
  let col = Array.make p.n 0 in
  let c = ref 0 and s = ref 0 in
  while !s < p.n do
    let e = p.cend.(!s) in
    for i = !s to e - 1 do col.(p.lab.(i)) <- !c done;
    incr c;
    s := e
  done;
  (col, !c)

let refine g init =
  if Array.length init <> Graph.num_vertices g then
    invalid_arg "Iso.refine: colouring size mismatch";
  let p = make_part [| g |] in
  seed p init;
  ignore (refine_part p 0 0);
  colours_of p

let refine_pair g1 init1 g2 init2 =
  let n1 = Graph.num_vertices g1 in
  if Array.length init1 <> n1 || Array.length init2 <> Graph.num_vertices g2
  then invalid_arg "Iso.refine_pair: colouring size mismatch";
  let p = make_part [| g1; g2 |] in
  seed p (Array.append init1 init2);
  ignore (refine_part p 0 0);
  let col, c = colours_of p in
  (Array.sub col 0 n1, Array.sub col n1 (p.n - n1), c)
