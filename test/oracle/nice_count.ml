open Wlcq_graph
open Wlcq_treewidth
open Wlcq_hom
module Bitset = Wlcq_util.Bitset
module Bigint = Wlcq_util.Bigint
module Count = Wlcq_util.Count
module Tbl = Wlcq_util.Ordering.Int_list_tbl
module Obs = Wlcq_obs.Obs
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome
module Dispatch = Wlcq_dispatch.Dispatch

let m_runs = Obs.counter "nice_count.runs"
let m_entries = Obs.counter "nice_count.dp_entries"
let d_bag = Obs.distribution "nice_count.bag_size"
let m_packed_keys = Obs.counter "nice_count.packed_keys"
let m_hashed_keys = Obs.counter "nice_count.hashed_keys"
let m_exhausted = Obs.counter "robust.fallback.nice_exhausted"
let m_heuristic_decomp = Obs.counter "robust.fallback.nice_heuristic_decomp"

(* Tables map the images of the bag vertices (in increasing H-vertex
   order) to the number of homomorphisms of the subtree's part of H
   extending them. *)

(* ------------------------------------------------------------------ *)
(* Reference engine: int-list keys, full Bigint arithmetic.            *)
(* Kept verbatim as the differential-testing oracle for the packed     *)
(* engine below — do not optimise.                                     *)
(* ------------------------------------------------------------------ *)

let count_with_nice_reference nd h g =
  if not (Nice.is_valid_for nd h) then
    invalid_arg "Nice_count.count_with_nice_reference: decomposition does not match the pattern";
  Obs.span "nice_count.run_reference" @@ fun () ->
  let on = Obs.enabled () in
  if on then Obs.incr m_runs;
  let ng = Graph.num_vertices g in
  let tables =
    Array.make (Nice.num_nodes nd) (Tbl.create 1 : Bigint.t Tbl.t)
  in
  let bump table key v =
    let prev = Option.value ~default:Bigint.zero (Tbl.find_opt table key) in
    Tbl.replace table key (Bigint.add prev v)
  in
  Array.iteri
    (fun i node ->
       let table : Bigint.t Tbl.t = Tbl.create 64 in
       (match node with
        | Nice.Leaf -> Tbl.replace table [] Bigint.one
        | Nice.Introduce (v, c) ->
          let bag = Bitset.to_list nd.Nice.bags.(i) in
          (* neighbours of v inside the bag, with their key positions *)
          let constrained =
            List.filteri (fun _ u -> u <> v && Graph.adjacent h u v) bag
          in
          let positions =
            List.map
              (fun u ->
                 let rec index j = function
                   | [] -> assert false
                   | x :: _ when x = u -> j
                   | _ :: rest -> index (j + 1) rest
                 in
                 index 0 bag)
              constrained
          in
          let vpos =
            let rec index j = function
              | [] -> assert false
              | x :: _ when x = v -> j
              | _ :: rest -> index (j + 1) rest
            in
            index 0 bag
          in
          Tbl.iter
            (fun ckey cnt ->
               for w = 0 to ng - 1 do
                 (* splice w into position vpos *)
                 let rec splice j = function
                   | rest when j = vpos -> w :: rest
                   | [] -> [ w ]
                   | x :: rest -> x :: splice (j + 1) rest
                 in
                 let key = splice 0 ckey in
                 let karr = Array.of_list key in
                 let ok =
                   List.for_all
                     (fun p -> Graph.adjacent g karr.(p) w)
                     positions
                 in
                 if ok then bump table key cnt
               done)
            tables.(c)
        | Nice.Forget (v, c) ->
          let cbag = Bitset.to_list nd.Nice.bags.(c) in
          let vpos =
            let rec index j = function
              | [] -> assert false
              | x :: _ when x = v -> j
              | _ :: rest -> index (j + 1) rest
            in
            index 0 cbag
          in
          Tbl.iter
            (fun ckey cnt ->
               let key = List.filteri (fun j _ -> j <> vpos) ckey in
               bump table key cnt)
            tables.(c)
        | Nice.Join (c1, c2) ->
          Tbl.iter
            (fun key cnt1 ->
               match Tbl.find_opt tables.(c2) key with
               | Some cnt2 -> Tbl.replace table key (Bigint.mul cnt1 cnt2)
               | None -> ())
            tables.(c1));
       tables.(i) <- table;
       if on then begin
         Obs.add m_entries (Tbl.length table);
         Obs.observe d_bag (Bitset.cardinal nd.Nice.bags.(i))
       end)
    nd.Nice.nodes;
  Option.value ~default:Bigint.zero
    (Tbl.find_opt tables.(nd.Nice.root) [])

let count_reference h g =
  let d = Exact.optimal_decomposition h in
  let nd = Nice.of_decomposition d ~universe:(Graph.num_vertices h) in
  count_with_nice_reference nd h g

(* ------------------------------------------------------------------ *)
(* Packed engine.                                                      *)
(* ------------------------------------------------------------------ *)

let index_of v lst =
  let rec go j = function
    | [] -> invalid_arg "Nice_count.index_of: vertex not in bag"
    | x :: rest -> if x = v then j else go (j + 1) rest
  in
  go 0 lst

let count_with_nice ?(budget = Budget.unlimited) nd h g =
  if not (Nice.is_valid_for nd h) then
    invalid_arg "Nice_count.count_with_nice: decomposition does not match the pattern";
  Obs.span "nice_count.run" @@ fun () ->
  let on = Obs.enabled () in
  if on then Obs.incr m_runs;
  let ng = Graph.num_vertices g in
  let c = Dp_key.codec ~n:ng in
  let nnodes = Nice.num_nodes nd in
  let tables =
    Array.init nnodes (fun i ->
        Dp_key.table c ~arity:(Bitset.cardinal nd.Nice.bags.(i)))
  in
  (* the DP is sequential (driver domain), so the budget may unwind by
     exception; the pooled tables are released either way *)
  Fun.protect ~finally:(fun () -> Array.iter Dp_key.release tables)
  @@ fun () ->
  Array.iteri
    (fun i node ->
       Budget.check budget;
       let arity = Bitset.cardinal nd.Nice.bags.(i) in
       let table = tables.(i) in
       (match node with
        | Nice.Leaf -> Dp_key.bump c table [||] Count.one
        | Nice.Introduce (v, ci) ->
          let bag = Bitset.to_list nd.Nice.bags.(i) in
          let vpos = index_of v bag in
          (* key positions (in this bag) of the in-bag neighbours of v *)
          let constrained =
            let rec go j = function
              | [] -> []
              | u :: rest ->
                if u <> v && Graph.adjacent h u v then j :: go (j + 1) rest
                else go (j + 1) rest
            in
            go 0 bag
          in
          let carity = arity - 1 in
          let cscratch = Array.make (max 1 carity) 0 in
          let key = Array.make arity 0 in
          Dp_key.iter_decoded c tables.(ci) ~arity:carity cscratch
            (fun ckey cnt ->
               Budget.tick_check budget;
               Array.blit ckey 0 key 0 vpos;
               Array.blit ckey vpos key (vpos + 1) (carity - vpos);
               for w = 0 to ng - 1 do
                 key.(vpos) <- w;
                 if
                   List.for_all
                     (fun p -> Graph.adjacent g key.(p) w)
                     constrained
                 then Dp_key.bump c table key cnt
               done)
        | Nice.Forget (v, ci) ->
          let cbag = Bitset.to_list nd.Nice.bags.(ci) in
          let vpos = index_of v cbag in
          let carity = arity + 1 in
          let cscratch = Array.make carity 0 in
          let key = Array.make (max 1 arity) 0 in
          Dp_key.iter_decoded c tables.(ci) ~arity:carity cscratch
            (fun ckey cnt ->
               Array.blit ckey 0 key 0 vpos;
               Array.blit ckey (vpos + 1) key vpos (arity - vpos);
               Dp_key.bump c table
                 (if arity = 0 then [||] else key)
                 cnt)
        | Nice.Join (c1, c2) ->
          let idpos = Array.init arity (fun j -> j) in
          let scratch = Array.make (max 1 arity) 0 in
          Dp_key.iter_decoded c tables.(c1) ~arity scratch (fun key cnt1 ->
              let cnt2 = Dp_key.find c tables.(c2) key idpos in
              if not (Count.is_zero cnt2) then
                Dp_key.bump c table key (Count.mul cnt1 cnt2)));
       if on then begin
         let len = Dp_key.length table in
         Obs.add m_entries len;
         Obs.observe d_bag arity;
         if Dp_key.is_packed table then Obs.add m_packed_keys len
         else Obs.add m_hashed_keys len
       end)
    nd.Nice.nodes;
  Count.to_bigint (Dp_key.total tables.(nd.Nice.root))

let choose h g =
  Dispatch.choose_hom ~nh:(Graph.num_vertices h) ~ng:(Graph.num_vertices g)
    ~mg:(Graph.num_edges g)

let count ?budget h g =
  if Graph.num_vertices h = 0 then Bigint.one
  else if Graph.num_vertices g = 0 then Bigint.zero
  else
    match choose h g with
    | Dispatch.Hom_brute -> Bigint.of_int (Brute.count ?budget h g)
    | Dispatch.Hom_packed ->
      let d = Exact.optimal_decomposition h in
      let nd = Nice.of_decomposition d ~universe:(Graph.num_vertices h) in
      count_with_nice ?budget nd h g

let count_budgeted ~budget h g =
  Obs.entry_point "nice_count.count" @@ fun () ->
  let note_exhausted r =
    Obs.incr m_exhausted;
    Obs.journal ~severity:Obs.Warn
      ~attrs:[ ("reason", Budget.reason_to_string r) ]
      "nice_count.exhausted";
    `Exhausted r
  in
  if
    Graph.num_vertices h > 0
    && Graph.num_vertices g > 0
    && (match choose h g with
        | Dispatch.Hom_brute -> true
        | Dispatch.Hom_packed -> false)
  then
    match Brute.count_budgeted ~budget h g with
    | `Exact n -> `Exact (Bigint.of_int n)
    | `Degraded (n, r) -> `Degraded (Bigint.of_int n, r)
    | `Exhausted (_, r) -> note_exhausted r
  else
  match Exact.optimal_decomposition_budgeted ~budget h with
  | exception Budget.Exhausted r -> note_exhausted r
  | od ->
    let d, decomp_degraded =
      match od with
      | `Exact d -> (d, None)
      | `Degraded (d, r) -> (d, Some r)
      | `Exhausted _ -> assert false
    in
    let nd = Nice.of_decomposition d ~universe:(Graph.num_vertices h) in
    (* DP rung under a fork, as in Td_count.count_budgeted *)
    let dp_budget =
      match decomp_degraded with None -> budget | Some _ -> Budget.fork budget
    in
    match count_with_nice ~budget:dp_budget nd h g with
    | exception Budget.Exhausted r -> note_exhausted r
    | v ->
      (match decomp_degraded with
       | None -> `Exact v
       | Some r ->
         Obs.incr m_heuristic_decomp;
         Obs.journal ~severity:Obs.Info
           ~attrs:[ ("cause", Budget.reason_to_string r.Outcome.cause) ]
           "nice_count.heuristic_decomp";
         Outcome.degraded ~cause:r.Outcome.cause
           ~fallback:"heuristic decomposition (count still exact)" v)
