(* Ground truth from two independent in-process routes per op.  The
   daemon's answer is checked against the agreed value, so whichever
   route the service adopts later is still checked against the other.

   - count: fixed-order enumeration ([Cq.count_answers]) and the
     Corollary 4 DP ([Fast_count.count_answers]);
   - decide: [Equivalence.equivalent] against the list-based reference
     k-WL ([Kwl.equivalent_reference]) for k >= 2, and against the
     canonical-labelling colour refinement ([Iso.refine_pair]) for
     k = 1, which [Kwl] does not cover;
   - treewidth: branch and bound ([Exact.treewidth]) and the subset
     DP ([Exact.treewidth_dp]). *)

module G = Wlcq_graph
module Core = Wlcq_core
open Problems

type t = {
  expected : string;  (** the value a correct reply carries *)
  agree : bool;  (** both routes gave the same answer *)
  enum_ms : float;  (** count/batch: enumeration route, summed over queries *)
  dp_ms : float;  (** count/batch: DP route *)
  served_route_ms : float;  (** the route the daemon runs today *)
}

let time f =
  let t0 = Wlcq_obs.Obs.now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Wlcq_obs.Obs.now_ns ()) t0) /. 1e6)

let cq_of q = Core.Cq.make (G.Graph.create q.q_vars q.q_atoms) (List.init q.q_free Fun.id)

let count q g =
  let q = cq_of q in
  let a, enum_ms = time (fun () -> Core.Cq.count_answers q g) in
  let b, dp_ms = time (fun () -> Core.Fast_count.count_answers q g) in
  let a = string_of_int a in
  (a, String.equal a (Wlcq_util.Bigint.to_string b), enum_ms, dp_ms)

let refinement_equivalent g1 g2 =
  let init g = Array.make (G.Graph.num_vertices g) 0 in
  let c1, c2, _ = G.Iso.refine_pair g1 (init g1) g2 (init g2) in
  let hist c = List.sort compare (Array.to_list c) in
  hist c1 = hist c2

let compute = function
  | P_count (q, g) ->
    let v, agree, e, d = count q g in
    { expected = v; agree; enum_ms = e; dp_ms = d; served_route_ms = e }
  | P_batch (qs, g) ->
    let rs = List.map (fun q -> count q g) qs in
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rs in
    let e = sum (fun (_, _, e, _) -> e) in
    { expected = String.concat "," (List.map (fun (v, _, _, _) -> v) rs);
      agree = List.for_all (fun (_, a, _, _) -> a) rs;
      enum_ms = e; dp_ms = sum (fun (_, _, _, d) -> d); served_route_ms = e }
  | P_decide (k, g1, g2) ->
    let a, ms = time (fun () -> Wlcq_wl.Equivalence.equivalent k g1 g2) in
    let b =
      if k = 1 then refinement_equivalent g1 g2
      else Wlcq_wl.Kwl.equivalent_reference k g1 g2
    in
    { expected = string_of_bool a; agree = Bool.equal a b; enum_ms = 0.0; dp_ms = 0.0;
      served_route_ms = ms }
  | P_tw g ->
    let a, ms = time (fun () -> Wlcq_treewidth.Exact.treewidth g) in
    let b = Wlcq_treewidth.Exact.treewidth_dp g in
    { expected = string_of_int a; agree = a = b; enum_ms = 0.0; dp_ms = 0.0;
      served_route_ms = ms }

(* [compute_all probs] fills the truths of [probs] on two domains:
   this runs outside every timed phase, so the extra domain never
   overlaps a measurement. *)
let compute_all (probs : problem array) =
  let n = Array.length probs in
  let out = Array.make n None in
  let work parity () =
    let i = ref parity in
    while !i < n do
      out.(!i) <- Some (compute probs.(!i));
      i := !i + 2
    done
  in
  let d = Domain.spawn (work 1) in
  work 0 ();
  Domain.join d;
  Array.map (function Some t -> t | None -> assert false) out
