(* Patterns with decompositions built so that Td_count's DP fans out.

   Td_count roots its DP at decomposition node 0 and spreads the root's
   child subtrees over worker domains.  Node 0 is a leaf of every
   decomposition Elimination builds, so [Td_count.count] and
   [count_budgeted] see one root subtree and stay sequential; tests of
   the parallel path pass one of these through
   [count_with_decomposition(_budgeted)] instead, and check with
   [fanned_out] that it really ran. *)

open Wlcq_graph
open Wlcq_treewidth
module Bitset = Wlcq_util.Bitset
module Obs = Wlcq_obs.Obs

let bag n vs =
  let b = Bitset.create n in
  List.iter (Bitset.set b) vs;
  b

(* [star m] is K1,m (centre 0, leaves 1..m) with node 0 holding the
   centre bag {0} and one child {0, i} per leaf: m root subtrees. *)
let star m =
  let n = m + 1 in
  let tree = Graph.create n (List.init m (fun i -> (0, i + 1))) in
  let bags = Array.init n (fun t -> if t = 0 then bag n [ 0 ] else bag n [ 0; t ]) in
  (Builders.star m, Decomposition.make tree bags)

(* [union h1 h2] is the disjoint union of [h1] and [h2] (vertices of
   [h2] shifted past those of [h1]), with node 0 holding an empty bag
   over two children: one bag with all of [h1], one with all of [h2]. *)
let union h1 h2 =
  let h = Ops.disjoint_union h1 h2 in
  let n1 = Graph.num_vertices h1 and n = Graph.num_vertices h in
  let tree = Graph.create 3 [ (0, 1); (0, 2) ] in
  let bags =
    [| bag n []; bag n (List.init n1 Fun.id);
       bag n (List.init (n - n1) (fun i -> n1 + i)) |]
  in
  (h, Decomposition.make tree bags)

let par_runs () =
  match Obs.find_counter "td_count.par_runs" with
  | Some c -> Obs.counter_value c
  | None -> 0

(* [fanned_out f] runs [f] with metrics armed and returns its result
   with whether a DP took the parallel path meanwhile
   ([td_count.par_runs] moved).  A host with one recommended domain
   never fans out, so there it reports [true]. *)
let fanned_out f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let before = par_runs () in
  let r = f () in
  (r, Domain.recommended_domain_count () <= 1 || par_runs () > before)
