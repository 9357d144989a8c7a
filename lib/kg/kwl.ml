module Ordering = Wlcq_util.Ordering
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

type result = Wlcq_wl.Kwl.result = {
  colours : int array;
  num_colours : int;
  rounds : int;
}

let m_refine_runs = Obs.counter "kg.refine.runs"
let m_refine_rounds = Obs.counter "kg.refine.rounds"
let m_kwl_runs = Obs.counter "kg.kwl.runs"
let m_kwl_rounds = Obs.counter "kg.kwl.rounds"
let m_prefix = Obs.counter "robust.fallback.kg_prefix"
let m_exhausted = Obs.counter "robust.fallback.kg_exhausted"

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

(* ------------------------------------------------------------------ *)
(* Colour refinement                                                   *)
(* ------------------------------------------------------------------ *)

let refine_many ?(budget = Budget.unlimited) graphs =
  let init =
    List.map
      (fun g ->
         Array.init (Kgraph.num_vertices g) (fun v ->
             [ Kgraph.vertex_label g v ]))
      graphs
  in
  let colourings, num = canonicalise Ordering.int_list init in
  let round colourings =
    let signatures =
      List.map2
        (fun g colours ->
           Array.init (Kgraph.num_vertices g) (fun v ->
               let outs =
                 List.map (fun (w, l) -> (0, l, colours.(w)))
                   (Kgraph.out_edges g v)
               in
               let ins =
                 List.map (fun (w, l) -> (1, l, colours.(w)))
                   (Kgraph.in_edges g v)
               in
               (colours.(v), List.sort Ordering.int_triple (outs @ ins))))
        graphs colourings
    in
    canonicalise
      (Ordering.pair Int.compare (List.compare Ordering.int_triple))
      signatures
  in
  let rec go colourings num rounds =
    (* one poll per round: rounds are the unbounded dimension of
       refinement on labelled directed graphs *)
    Budget.tick_check budget;
    let colourings', num' = Obs.span "kg.refine.round" (fun () -> round colourings) in
    if num' = num then (colourings, num, rounds)
    else go colourings' num' (rounds + 1)
  in
  let colourings, num, rounds =
    Obs.span "kg.refine.run" (fun () -> go colourings num 0)
  in
  if Obs.enabled () then begin
    Obs.incr m_refine_runs;
    Obs.add m_refine_rounds rounds
  end;
  List.map (fun colours -> { colours; num_colours = num; rounds }) colourings

let refine g = match refine_many [ g ] with [ r ] -> r | _ -> assert false

let refine_pair g1 g2 =
  match refine_many [ g1; g2 ] with
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Folklore k-WL on k-tuples                                           *)
(* ------------------------------------------------------------------ *)

(* The knowledge-graph extension changes only the atomic types k-WL
   starts from, so the rounds run on the flat plain-graph engine
   ([Wlcq_wl.Kwl.run_many_typed_budgeted]) and this module supplies the
   types.  The atomic type of a tuple t, flattened to an int list: the
   vertex labels, then for each ordered pair (i, j) with i <> j the
   equality bit, the number of edges t_i -> t_j and their sorted
   labels.  Types are interned jointly across the graphs, so equal ids
   mean equal types in every graph.  Ticked per tuple. *)
let atomic_types ~budget k graphs =
  let ids = Ordering.Int_list_tbl.create 256 in
  let intern key =
    match Ordering.Int_list_tbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Ordering.Int_list_tbl.length ids in
      Ordering.Int_list_tbl.replace ids key id;
      id
  in
  let typed =
    List.map
      (fun g ->
         let n = Kgraph.num_vertices g in
         let t = Array.make k 0 in
         let type_of idx =
           Budget.tick_check budget;
           let r = ref idx in
           for i = k - 1 downto 0 do
             t.(i) <- !r mod n;
             r := !r / n
           done;
           let key = ref [] in
           for i = k - 1 downto 0 do
             for j = k - 1 downto 0 do
               if i <> j then begin
                 let ls =
                   List.filter_map (* lint: hot-alloc atomic-type constructor: the type key is the output, built once per tuple *)
                     (fun (w, l) -> if w = t.(j) then Some l else None)
                     (Kgraph.out_edges g t.(i))
                 in
                 let eq = if t.(i) = t.(j) then 1 else 0 in
                 (* lint: hot-alloc atomic-type constructor, as above *)
                 key := eq :: List.length ls :: (List.sort Int.compare ls @ !key)
               end
             done
           done;
           for i = k - 1 downto 0 do
             key := Kgraph.vertex_label g t.(i) :: !key
           done;
           intern !key
         in
         (n, Array.init (Wlcq_wl.Kwl.tuple_count k n) type_of))
      graphs
  in
  (typed, Ordering.Int_list_tbl.length ids)

(* Budget protocol: a trip while typing (or during the flat engine's
   initial colouring) leaves no prefix.  One poll between the typing
   and the first round keeps the typing itself as the prefix when the
   budget tripped meanwhile; inside the rounds the flat engine's
   protocol applies — a trip keeps the last completed round's
   colouring. *)
let run_core ~budget k graphs =
  if k < 2 then invalid_arg "Kwl.run: requires k >= 2 (use refine for k = 1)";
  Obs.span "kg.kwl.run" ~attrs:[ ("k", string_of_int k) ] @@ fun () ->
  let outcome =
    match atomic_types ~budget k graphs with
    | exception Budget.Exhausted r -> `Exhausted r
    | typed, num -> (
      match if Budget.poll budget then Budget.tripped budget else None with
      | Some cause ->
        Outcome.degraded ~cause
          ~fallback:"stable colour prefix after 0 completed rounds"
          (List.map
             (fun (_, types) -> { colours = types; num_colours = num; rounds = 0 })
             typed)
      | None -> Wlcq_wl.Kwl.run_many_typed_budgeted ~budget k typed)
  in
  (match outcome with
   | (`Exact (r :: _) | `Degraded (r :: _, _)) when Obs.enabled () ->
     Obs.incr m_kwl_runs;
     Obs.add m_kwl_rounds r.rounds
   | `Exact _ | `Degraded _ | `Exhausted _ -> ());
  outcome

let run_many k graphs =
  match run_core ~budget:Budget.unlimited k graphs with
  | `Exact results -> results
  | `Degraded _ | `Exhausted _ -> assert false (* an unlimited budget never trips *)

let run k g = match run_many k [ g ] with [ r ] -> r | _ -> assert false

let run_pair k g1 g2 =
  match run_many k [ g1; g2 ] with
  | [ r1; r2 ] -> (r1, r2)
  | _ -> assert false

(* lint: allow R8 Invalid_argument is the k >= 2 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let run_many_budgeted ~budget k graphs =
  Obs.entry_point "kg_kwl.run_many" @@ fun () ->
  match run_core ~budget k graphs with
  | `Exact results -> `Exact results
  | `Degraded (_, why) as degraded ->
    Obs.incr m_prefix;
    Obs.journal ~severity:Obs.Warn
      ~attrs:[ ("cause", Budget.reason_to_string why.Outcome.cause) ]
      "kg_kwl.prefix_fallback";
    degraded
  | `Exhausted r ->
    (* tripped before the first round: no prefix exists *)
    Obs.incr m_exhausted;
    Obs.journal ~severity:Obs.Warn
      ~attrs:[ ("reason", Budget.reason_to_string r) ]
      "kg_kwl.exhausted";
    `Exhausted r

(* lint: allow R8 Invalid_argument is the k >= 2 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let run_budgeted ~budget k g =
  match run_many_budgeted ~budget k [ g ] with
  | `Exact [ r ] -> `Exact r
  | `Degraded ([ r ], reason) -> `Degraded (r, reason)
  | `Exhausted r -> `Exhausted r
  | `Exact _ | `Degraded _ -> assert false

let histogram r =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun c ->
       Hashtbl.replace counts c
         (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    r.colours;
  List.sort Ordering.int_pair
    (Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts [])

let equivalent k g1 g2 =
  if k < 1 then invalid_arg "Kwl.equivalent: k must be positive"
  else if k = 1 then begin
    let r1, r2 = refine_pair g1 g2 in
    List.equal (Ordering.equal_pair Int.equal Int.equal) (histogram r1) (histogram r2)
  end
  else begin
    let r1, r2 = run_pair k g1 g2 in
    List.equal (Ordering.equal_pair Int.equal Int.equal) (histogram r1) (histogram r2)
  end

(* lint: allow R8 Invalid_argument is the k >= 1 arity validation
   reporting a caller bug, deliberately outside the Outcome envelope *)
let equivalent_budgeted ~budget k g1 g2 =
  if k < 1 then invalid_arg "Kwl.equivalent_budgeted: k must be positive"
  else
  Obs.entry_point "kg_kwl.equivalent" @@ fun () ->
  if k = 1 then (
    (* refinement polls the budget once per round, so a tripped
       deadline stops it mid-run *)
    match refine_many ~budget [ g1; g2 ] with
    | [ r1; r2 ] ->
      `Exact
        (List.equal
           (Ordering.equal_pair Int.equal Int.equal)
           (histogram r1) (histogram r2))
    | _ -> assert false
    | exception Budget.Exhausted reason -> `Exhausted reason)
  else
    let verdict r1 r2 =
      List.equal (Ordering.equal_pair Int.equal Int.equal) (histogram r1)
        (histogram r2)
    in
    match run_many_budgeted ~budget k [ g1; g2 ] with
    | `Exact [ r1; r2 ] -> `Exact (verdict r1 r2)
    | `Degraded ([ r1; r2 ], reason) ->
      (* the prefix colourings refine only further: a histogram
         divergence at any completed round is permanent *)
      if verdict r1 r2 then `Exhausted reason.Outcome.cause else `Exact false
    | `Exhausted r -> `Exhausted r
    | `Exact _ | `Degraded _ -> assert false
