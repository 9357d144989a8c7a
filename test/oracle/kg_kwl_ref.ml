(* The original list-based folklore k-WL on knowledge graphs: atomic
   types as structured values, canonicalised by sorting, and functional
   rounds over int-list signatures.  The differential oracle for
   Wlcq_kg.Kwl, whose rounds now run on the flat engine — do not
   optimise.  Same partitions, same [rounds], same [num_colours]; the
   colour ids may differ. *)

module Ordering = Wlcq_util.Ordering
module Kgraph = Wlcq_kg.Kgraph

type result = Wlcq_kg.Kwl.result = {
  colours : int array;
  num_colours : int;
  rounds : int;
}

let canonicalise cmp labelled =
  let distinct =
    List.sort_uniq cmp (List.concat_map Array.to_list labelled)
  in
  let ids = Hashtbl.create 256 in
  List.iteri (fun i s -> Hashtbl.replace ids s i) distinct;
  let id_of s =
    (* total: [distinct] enumerates every signature in [labelled] *)
    match Hashtbl.find_opt ids s with Some i -> i | None -> assert false
  in
  (List.map (Array.map id_of) labelled, List.length distinct)

let decode_tuple k n idx =
  let t = Array.make k 0 in
  let r = ref idx in
  for i = k - 1 downto 0 do
    t.(i) <- !r mod n;
    r := !r / n
  done;
  t

(* atomic type: vertex labels plus, for each ordered pair (i, j) with
   i <> j, the sorted list of labels of edges t_i -> t_j, plus the
   equality pattern *)
let atomic g k idx =
  let n = Kgraph.num_vertices g in
  let t = decode_tuple k n idx in
  let labels = Array.to_list (Array.map (Kgraph.vertex_label g) t) in
  let rels = ref [] in
  for i = k - 1 downto 0 do
    for j = k - 1 downto 0 do
      if i <> j then begin
        let ls =
          List.filter_map
            (fun (w, l) -> if w = t.(j) then Some l else None)
            (Kgraph.out_edges g t.(i))
        in
        rels := (i, j, t.(i) = t.(j), List.sort Int.compare ls) :: !rels
      end
    done
  done;
  (labels, !rels)

let atomic_order =
  let rel (i1, j1, eq1, ls1) (i2, j2, eq2, ls2) =
    let c = Int.compare i1 i2 in
    if c <> 0 then c
    else
      let c = Int.compare j1 j2 in
      if c <> 0 then c
      else
        let c = Bool.compare eq1 eq2 in
        if c <> 0 then c else Ordering.int_list ls1 ls2
  in
  Ordering.pair Ordering.int_list (List.compare rel)

let run_many k graphs =
  if k < 2 then invalid_arg "Kg_kwl_ref.run_many: requires k >= 2";
  let tuple_counts =
    List.map
      (fun g ->
         let n = Kgraph.num_vertices g in
         let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
         pow 1 k)
      graphs
  in
  let init =
    List.map2
      (fun g count -> Array.init count (fun idx -> atomic g k idx))
      graphs tuple_counts
  in
  let colourings, num = canonicalise atomic_order init in
  let round colourings =
    let signatures =
      List.map2
        (fun (g, count) colours ->
           let n = Kgraph.num_vertices g in
           let place = Array.make k 1 in
           for i = k - 2 downto 0 do place.(i) <- place.(i + 1) * n done;
           Array.init count (fun idx ->
               let t = decode_tuple k n idx in
               let entries = ref [] in
               for w = 0 to n - 1 do
                 let entry =
                   Array.init k (fun i ->
                       colours.(idx + ((w - t.(i)) * place.(i))))
                 in
                 entries := Array.to_list entry :: !entries
               done;
               (colours.(idx), List.sort Ordering.int_list !entries)))
        (List.combine graphs tuple_counts)
        colourings
    in
    canonicalise
      (Ordering.pair Int.compare (List.compare Ordering.int_list))
      signatures
  in
  let rec go colourings num rounds =
    let colourings', num' = round colourings in
    if num' = num then (colourings, num, rounds)
    else go colourings' num' (rounds + 1)
  in
  let colourings, num, rounds = go colourings num 0 in
  List.map (fun colours -> { colours; num_colours = num; rounds }) colourings

let run_pair k g1 g2 =
  match run_many k [ g1; g2 ] with
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false
