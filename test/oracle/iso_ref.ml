(* The isomorphism routes that [Iso]'s individualisation–refinement
   search replaced, kept as its differential reference: a list-and-
   [Hashtbl] colour refinement, backtracking over a static vertex order
   that never refines after a choice, the canonical search without
   automorphism pruning, and the exhaustive automorphism enumeration.
   Independent of [Iso] by construction — do not optimise. *)

open Wlcq_graph
module Ordering = Wlcq_util.Ordering

(* One refinement round over several graphs at once.  Signatures pair
   the old colour with the sorted multiset of neighbour colours; new
   ids are assigned in the sorted order of signatures, which makes the
   renaming canonical and comparable across graphs. *)
let refine_round graphs colourings =
  let signatures =
    List.map2
      (fun g colours ->
         Array.init (Graph.num_vertices g) (fun v ->
             let neigh =
               Graph.fold_neighbours g v (fun w acc -> colours.(w) :: acc) []
             in
             (colours.(v), List.sort Int.compare neigh)))
      graphs colourings
  in
  let all = List.concat_map Array.to_list signatures in
  let distinct =
    List.sort_uniq (Ordering.pair Int.compare Ordering.int_list) all
  in
  let ids = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace ids s i) distinct;
  let colourings' =
    List.map (Array.map (fun s -> Hashtbl.find ids s)) signatures
  in
  (colourings', List.length distinct)

(* Normalise arbitrary int labels to 0..c-1 canonically (sorted label
   order), shared across the list of colourings. *)
let normalise colourings =
  let all = List.concat_map Array.to_list colourings in
  let distinct = List.sort_uniq Int.compare all in
  let ids = Hashtbl.create 64 in
  List.iteri (fun i c -> Hashtbl.replace ids c i) distinct;
  (List.map (Array.map (Hashtbl.find ids)) colourings, List.length distinct)

let refine_many graphs inits =
  let colourings, c = normalise inits in
  let rec go colourings c =
    let colourings', c' = refine_round graphs colourings in
    if c' = c then (colourings, c) else go colourings' c'
  in
  go colourings c

let refine g init =
  match refine_many [ g ] [ init ] with
  | [ colours ], c -> (colours, c)
  | _ -> assert false

let refine_pair g1 init1 g2 init2 =
  match refine_many [ g1; g2 ] [ init1; init2 ] with
  | [ c1; c2 ], c -> (c1, c2, c)
  | _ -> assert false

let histogram colours c =
  let h = Array.make c 0 in
  Array.iter (fun col -> h.(col) <- h.(col) + 1) colours;
  h

(* Backtracking search for an isomorphism g1 -> g2 refining the given
   pins and respecting the given initial colourings.  Vertices of g1
   are processed in a static order that prefers small colour classes;
   each candidate must share the stable colour and be
   adjacency-consistent with everything already mapped. *)
let search ?init1 ?init2 g1 g2 pins =
  let n = Graph.num_vertices g1 in
  if n <> Graph.num_vertices g2 || Graph.num_edges g1 <> Graph.num_edges g2
  then None
  else begin
    (* Seed the refinement with the initial colourings and the pins:
       pinned vertices get unique matching colours so the refinement
       respects them.  Stable colours refine the initial ones, so the
       colour check inside the search enforces both. *)
    let base1 = Option.value ~default:(Array.make n 0) init1 in
    let base2 = Option.value ~default:(Array.make n 0) init2 in
    let npins = List.length pins in
    let init1 = Array.map (fun c -> ((c + 1) * (npins + 1))) base1 in
    let init2 = Array.map (fun c -> ((c + 1) * (npins + 1))) base2 in
    List.iteri
      (fun i (u, v) ->
         init1.(u) <- i + 1 - (npins + 1);
         init2.(v) <- i + 1 - (npins + 1))
      pins;
    let c1, c2, c = refine_pair g1 init1 g2 init2 in
    if histogram c1 c <> histogram c2 c then None
    else begin
      let class_size = histogram c1 c in
      let order =
        List.sort
          (fun u v ->
             Ordering.int_pair
               (class_size.(c1.(u)), u)
               (class_size.(c1.(v)), v))
          (Graph.vertices g1)
      in
      let order = Array.of_list order in
      let image = Array.make n (-1) in
      let used = Array.make n false in
      let consistent u v =
        c1.(u) = c2.(v)
        && (not used.(v))
        && Array.for_all
          (fun u' ->
             image.(u') < 0
             || Graph.adjacent g1 u u' = Graph.adjacent g2 v image.(u'))
          order
      in
      let pinned = Hashtbl.create 8 in
      List.iter (fun (u, v) -> Hashtbl.replace pinned u v) pins;
      let rec go i =
        if i = n then true
        else begin
          let u = order.(i) in
          let candidates =
            match Hashtbl.find_opt pinned u with
            | Some v -> [ v ]
            | None -> Graph.vertices g2
          in
          List.exists
            (fun v ->
               consistent u v
               && begin
                 image.(u) <- v;
                 used.(v) <- true;
                 if go (i + 1) then true
                 else begin
                   image.(u) <- -1;
                   used.(v) <- false;
                   false
                 end
               end)
            candidates
        end
      in
      if go 0 then Some (Array.copy image) else None
    end
  end

let find_isomorphism_fixing g1 g2 pins = search g1 g2 pins

let find_isomorphism g1 g2 = search g1 g2 []

let find_isomorphism_respecting g1 init1 g2 init2 =
  if Array.length init1 <> Graph.num_vertices g1
     || Array.length init2 <> Graph.num_vertices g2 then
    invalid_arg "Iso_ref.find_isomorphism_respecting: colouring size mismatch";
  search ~init1 ~init2 g1 g2 []

let isomorphic g1 g2 = Option.is_some (find_isomorphism g1 g2)

(* The canonical form of the unpruned search: every leaf of the tree is
   visited and the [Graph.compare]-least relabelling wins.  Returns the
   canonical graph and the initial colours (normalised to [0 .. c-1])
   in canonical order; two coloured graphs are isomorphic exactly when
   both agree. *)
let canonical_form ?init g =
  let n = Graph.num_vertices g in
  let base = Option.value ~default:(Array.make n 0) init in
  let init_norm =
    match normalise [ base ] with [ a ], _ -> a | _ -> assert false
  in
  let best = ref None in
  let consider colours =
    let p = Array.copy colours in
    let h = Ops.relabel g p in
    match !best with
    | Some (bh, _) when Graph.compare bh h <= 0 -> ()
    | _ -> best := Some (h, p)
  in
  let rec go colours c =
    if c = n then consider colours
    else begin
      (* smallest colour id with a non-singleton class: canonical
         because colour ids are ordered by refinement history *)
      let hist = histogram colours c in
      let target = ref 0 in
      while hist.(!target) < 2 do incr target done;
      let t = !target in
      for v = 0 to n - 1 do
        if colours.(v) = t then begin
          (* split v below its classmates, preserving the relative
             order of all other classes *)
          let init' = Array.map (fun col -> (2 * col) + 1) colours in
          init'.(v) <- 2 * t;
          let colours', c' = refine g init' in
          go colours' c'
        end
      done
    end
  in
  let colours0, c0 = refine g init_norm in
  go colours0 c0;
  match !best with
  | None -> (g, [||])
  | Some (h, p) ->
    let init_canon = Array.make n 0 in
    Array.iteri (fun v c -> init_canon.(p.(v)) <- c) init_norm;
    (h, init_canon)

(* Enumerate all automorphisms by exhaustive colour-pruned
   backtracking.  Meant for query graphs (small), not data graphs. *)
let automorphisms g =
  let n = Graph.num_vertices g in
  let colours, _c = refine g (Array.make n 0) in
  let image = Array.make n (-1) in
  let used = Array.make n false in
  let acc = ref [] in
  let consistent u v =
    colours.(u) = colours.(v)
    && (not used.(v))
    && (let ok = ref true in
        for u' = 0 to n - 1 do
          if image.(u') >= 0
             && Graph.adjacent g u u' <> Graph.adjacent g v image.(u')
          then ok := false
        done;
        !ok)
  in
  let rec go u =
    if u = n then acc := Array.copy image :: !acc
    else
      for v = 0 to n - 1 do
        if consistent u v then begin
          image.(u) <- v;
          used.(v) <- true;
          go (u + 1);
          image.(u) <- -1;
          used.(v) <- false
        end
      done
  in
  go 0;
  List.rev !acc
