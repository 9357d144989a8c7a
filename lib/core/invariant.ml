open Wlcq_graph
module Bigint = Wlcq_util.Bigint

type t = { name : string; value : Graph.t -> string }

let of_int name f = { name; value = (fun g -> string_of_int (f g)) }
let of_bigint name f = { name; value = (fun g -> Bigint.to_string (f g)) }

let of_query name q = of_bigint name (Fast_count.count_answers q)

let witness_pairs () =
  let cfi base =
    let even, odd = Wlcq_cfi.Pairs.twisted_pair base in
    (even.Wlcq_cfi.Cfi.graph, odd.Wlcq_cfi.Cfi.graph)
  in
  let c4e, c4o = cfi (Builders.cycle 4) in
  let k4e, k4o = cfi (Builders.clique 4) in
  [
    ("2K3/C6", 1, Builders.two_triangles (), Builders.cycle 6);
    ("chi(C4)", 1, c4e, c4o);
    ("chi(K4)", 2, k4e, k4o);
    ("shrikhande/rook", 2, Builders.shrikhande (), Builders.rook ());
  ]

let dimension_lower_bound p =
  List.fold_left
    (fun acc (name, k, g1, g2) ->
       if p.value g1 <> p.value g2 then
         match acc with
         | Some (best, _) when best >= k + 1 -> acc
         | _ -> Some (k + 1, name)
       else acc)
    None (witness_pairs ())

let invariant_on_pairs p ~dim =
  List.for_all
    (fun (_, k, g1, g2) -> k < dim || p.value g1 = p.value g2)
    (witness_pairs ())

let standard_library () =
  [
    of_int "num-vertices" Graph.num_vertices;
    of_int "num-edges" Graph.num_edges;
    of_int "max-degree" Graph.max_degree;
    of_int "degeneracy" (fun g -> snd (Traversal.degeneracy_order g));
    of_int "girth" (fun g ->
        match Traversal.girth g with Some v -> v | None -> -1);
    of_int "triangles" (fun g ->
        Wlcq_hom.Inj.count_subgraph_copies (Builders.clique 3) g);
    of_bigint "charpoly-c0" (fun g ->
        (Spectral.characteristic_polynomial g).(0));
    { name = "charpoly";
      value =
        (fun g ->
           String.concat ","
             (Array.to_list
                (Array.map Bigint.to_string
                   (Spectral.characteristic_polynomial g)))) };
    of_bigint "domsets-2" (Domset.count_direct 2);
    of_bigint "domsets-3" (Domset.count_direct 3);
    of_query "star2-answers" (Star.query 2);
    of_query "star3-answers" (Star.query 3);
  ]
