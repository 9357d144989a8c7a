open Wlcq_graph
module Bitset = Wlcq_util.Bitset
module Combinat = Wlcq_util.Combinat
module Budget = Wlcq_robust.Budget

type t = { graph : Graph.t; free : Bitset.t }

let make h xs =
  let n = Graph.num_vertices h in
  let free = Bitset.create n in
  List.iter
    (fun x ->
       if x < 0 || x >= n then invalid_arg "Cq.make: free variable out of range";
       if Bitset.mem free x then invalid_arg "Cq.make: duplicate free variable";
       Bitset.set free x)
    xs;
  { graph = h; free }

let free_vars q = Array.of_list (Bitset.to_list q.free)
let quantified_vars q = Array.of_list (Bitset.to_list (Bitset.complement q.free))
let num_free q = Bitset.cardinal q.free
let is_full q = num_free q = Graph.num_vertices q.graph
let is_boolean q = num_free q = 0
let is_connected q = Traversal.is_connected q.graph

let pins_of q a =
  let xs = free_vars q in
  Array.to_list (Array.mapi (fun i x -> (x, a.(i))) xs)

let is_answer q g a =
  Wlcq_hom.Brute.exists ~pins:(pins_of q a) q.graph g

(* Iterate candidate assignments for the free variables; [restrict]
   optionally prunes the candidate vertices per free-variable
   position. *)
let iter_assignments ?restrict q g f =
  let k = num_free q in
  let ng = Graph.num_vertices g in
  match restrict with
  | None -> Combinat.iter_tuples ng k f
  | Some allowed ->
    let choices = Array.init k allowed in
    let a = Array.make k 0 in
    let rec go i =
      if i = k then f a
      else
        List.iter
          (fun v ->
             a.(i) <- v;
             go (i + 1))
          choices.(i)
    in
    go 0

let iter_answers ?(budget = Budget.unlimited) q g f =
  if is_boolean q then begin
    Budget.check budget;
    if Wlcq_hom.Brute.exists q.graph g then f [||]
  end
  else
    iter_assignments q g (fun a ->
        (* one tick per candidate assignment: each is a pattern-sized
           existence search, so the granularity is bounded *)
        Budget.tick_check budget;
        if is_answer q g a then f a)

let count_answers ?budget q g =
  let n = ref 0 in
  iter_answers ?budget q g (fun _ -> incr n);
  !n

let colour_classes g c =
  let classes = Hashtbl.create 16 in
  Array.iteri
    (fun v colour ->
       Hashtbl.replace classes colour
         (v :: Option.value ~default:[] (Hashtbl.find_opt classes colour)))
    c;
  ignore g;
  fun colour -> Option.value ~default:[] (Hashtbl.find_opt classes colour)

let count_answers_tau q g ~c ~tau =
  if Array.length c <> Graph.num_vertices g then
    invalid_arg "Cq.count_answers_tau: colouring size mismatch";
  if Array.length tau <> num_free q then
    invalid_arg "Cq.count_answers_tau: tau must cover the free variables";
  let class_of = colour_classes g c in
  let n = ref 0 in
  iter_assignments ~restrict:(fun i -> class_of tau.(i)) q g (fun a ->
      if is_answer q g a then incr n);
  !n

let count_cp_answers q g ~c =
  if not (Wlcq_hom.Colored.is_colouring g q.graph c) then
    invalid_arg "Cq.count_cp_answers: c is not an H-colouring of G";
  let ng = Graph.num_vertices g in
  let class_of =
    let classes = Hashtbl.create 16 in
    Array.iteri
      (fun v colour ->
         let s =
           match Hashtbl.find_opt classes colour with
           | Some s -> s
           | None ->
             let s = Bitset.create ng in
             Hashtbl.replace classes colour s;
             s
         in
         Bitset.set s v)
      c;
    fun colour ->
      Option.value ~default:(Bitset.create ng) (Hashtbl.find_opt classes colour)
  in
  let xs = free_vars q in
  let extendable a =
    Wlcq_hom.Brute.exists ~pins:(pins_of q a) ~candidates:class_of q.graph g
  in
  let count = ref 0 in
  iter_assignments
    ~restrict:(fun i -> Bitset.to_list (class_of xs.(i)))
    q g
    (fun a -> if extendable a then incr count);
  !count

let colours_of q =
  Array.init (Graph.num_vertices q.graph) (fun v ->
      if Bitset.mem q.free v then 1 else 0)

let isomorphic q1 q2 =
  Graph.num_vertices q1.graph = Graph.num_vertices q2.graph
  && num_free q1 = num_free q2
  && Option.is_some
       (Iso.find_isomorphism_respecting q1.graph (colours_of q1) q2.graph
          (colours_of q2))

let partial_automorphisms q =
  let xs = free_vars q in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun i x -> Hashtbl.replace pos x i) xs;
  let restrictions =
    List.filter_map
      (fun auto ->
         let preserves =
           Array.for_all (fun x -> Hashtbl.mem pos auto.(x)) xs
         in
         if preserves then
           Some (Array.map (fun x -> Hashtbl.find pos auto.(x)) xs)
         else None)
      (Iso.automorphisms q.graph)
  in
  List.sort_uniq Wlcq_util.Ordering.int_array restrictions

let relabel q p =
  let graph = Ops.relabel q.graph p in
  let free = Bitset.to_list q.free in
  make graph (List.map (fun x -> p.(x)) free)

let normal_form ?budget ?limit q =
  let c = Iso.canonical_form ?budget ~init:(colours_of q) ?limit q.graph in
  let free = List.map (fun x -> c.Iso.perm.(x)) (Bitset.to_list q.free) in
  (make c.Iso.canon free, c.Iso.perm, c.Iso.digest)

let pp ppf q =
  Format.fprintf ppf "(%a, X=%a)" Graph.pp q.graph Bitset.pp q.free

let to_string q = Format.asprintf "%a" pp q
