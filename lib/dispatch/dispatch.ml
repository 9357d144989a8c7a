(* Adaptive engine dispatch.  See dispatch.mli for the model; this file
   is the one place in the tree where engine-selection cutoffs are
   allowed to live (lint rule R6 bans magic-number size thresholds in
   the engine hot paths outside this module). *)

(* ------------------------------------------------------------------ *)
(* Calibration table                                                   *)
(* ------------------------------------------------------------------ *)

type calibration = {
  brute_hom_max : int;
  prune_min_work : int;
  enum_answers_max : int;
  dp_parallel_min : int;
  wl_parallel_min : int;
  wl_chunk : int;
  dense_key_bits : int;
  canon_node_steps : int;
}

let default_calibration =
  {
    (* crossover points measured by [bench/main.exe calibrate] on the
       reference container (see DESIGN.md); dp/wl parallel minima and
       the dense width carry over the engines' historical values *)
    brute_hom_max = 256;
    prune_min_work = 512;
    enum_answers_max = 50;
    dp_parallel_min = 1 lsl 15;
    wl_parallel_min = 1 lsl 15;
    wl_chunk = 256;
    dense_key_bits = 16;
    canon_node_steps = 2;
  }

(* lint: domain-local written by the driver before a run, read-only in workers *)
let table = ref default_calibration

let calibration () = !table
let set_calibration c = table := c
let reset_calibration () = table := default_calibration

(* ------------------------------------------------------------------ *)
(* Features                                                            *)
(* ------------------------------------------------------------------ *)

let sat_cap = 1 lsl 30

let sat_pow base e =
  if base <= 0 then if e = 0 then 1 else 0
  else begin
    let acc = ref 1 in
    (try
       for _ = 1 to e do
         if !acc > sat_cap / base then begin
           acc := sat_cap;
           raise Exit
         end
         else acc := !acc * base
       done
     with Exit -> ());
    !acc
  end

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > sat_cap / b then sat_cap
  else a * b

let sat_add a b = min sat_cap (a + b)

let brute_cost ~nh ~ng ~mg =
  if nh <= 0 then 1
  else if ng <= 0 then 0
  else
    (* ceiling average out-degree over both edge directions; at least 1
       so isolated-vertex graphs still cost ng per pattern vertex *)
    let d = max 1 ((2 * mg + ng - 1) / ng) in
    (* the [nh] factor charges every pattern vertex at least one step
       per partial map.  Without it a sparse target floors [d] to 1 and
       the estimate collapses to [ng] however large the pattern is —
       which routed ~200-vertex extension patterns (Lemma 22's F_ℓ
       family over a near-degree-1 target) into brute backtracking
       whose true branching is the target's *max* degree, i.e. an
       effectively unbounded run *)
    sat_mul (sat_mul ng nh) (sat_pow d (nh - 1))

(* ------------------------------------------------------------------ *)
(* Decision counters                                                   *)
(* ------------------------------------------------------------------ *)

let c_hom_brute = Wlcq_obs.Obs.counter "dispatch.chose_brute"
let c_hom_packed = Wlcq_obs.Obs.counter "dispatch.chose_packed"
let c_ans_enum = Wlcq_obs.Obs.counter "dispatch.chose_enum"
let c_prune = Wlcq_obs.Obs.counter "dispatch.chose_prune"
let c_lean = Wlcq_obs.Obs.counter "dispatch.chose_lean"
let c_par = Wlcq_obs.Obs.counter "dispatch.chose_par"
let c_seq = Wlcq_obs.Obs.counter "dispatch.chose_seq"
let c_dense = Wlcq_obs.Obs.counter "dispatch.chose_dense"
let c_sparse = Wlcq_obs.Obs.counter "dispatch.chose_sparse"
let c_address = Wlcq_obs.Obs.counter "dispatch.chose_address"
let c_compute = Wlcq_obs.Obs.counter "dispatch.chose_compute"

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

type hom_choice = Hom_brute | Hom_packed

(* Flight-recorder trail of dispatch decisions.  Guarded here (not just
   inside [Obs.journal]) so the attrs list is never allocated on the
   armed-metrics-but-no-journal path. *)
let note choice attrs =
  if Wlcq_obs.Obs.journal_on () then
    Wlcq_obs.Obs.journal ~severity:Wlcq_obs.Obs.Debug ~attrs
      ("dispatch." ^ choice)

let choose_hom ~nh ~ng ~mg =
  let cost = brute_cost ~nh ~ng ~mg in
  if cost <= !table.brute_hom_max then begin
    Wlcq_obs.Obs.incr c_hom_brute;
    note "hom_brute" [ ("cost", string_of_int cost) ];
    Hom_brute
  end
  else begin
    Wlcq_obs.Obs.incr c_hom_packed;
    note "hom_packed" [ ("cost", string_of_int cost) ];
    Hom_packed
  end

let prune_candidates ~work =
  if work < !table.prune_min_work then begin
    Wlcq_obs.Obs.incr c_lean;
    false
  end
  else begin
    Wlcq_obs.Obs.incr c_prune;
    true
  end

type ans_choice = Ans_enum | Ans_packed

let answer_costs ~nx ~free_edges ~comps ~ng ~mg =
  (* the kernel: one sweep over Hom(H[C ∪ δ] − x_last, G) per
     component, then a join of at most ng^(nx-1) row ANDs.  The DP: a
     bag enumeration of at least ng^|scope| assignments per constraint
     (a free variable alone is a scope), each component's carrying one
     pinned search *)
  List.fold_left
    (fun (kernel, dp) (c, a) ->
       ( sat_add kernel (brute_cost ~nh:(c + a - 1) ~ng ~mg),
         sat_add dp (sat_pow ng a) ))
    (sat_pow ng (nx - 1), sat_add (sat_mul nx ng) (sat_mul free_edges (sat_pow ng 2)))
    comps

let choose_answers ~nx ~free_edges ~comps ~ng ~mg =
  let kernel, dp = answer_costs ~nx ~free_edges ~comps ~ng ~mg in
  (* saturated work is no estimate: that tie goes to the DP, the only
     route for answer sets past native range *)
  if kernel < sat_cap && kernel <= sat_mul dp !table.enum_answers_max
  then begin
    Wlcq_obs.Obs.incr c_ans_enum;
    note "ans_enum"
      [ ("kernel", string_of_int kernel); ("dp", string_of_int dp) ];
    Ans_enum
  end
  else begin
    Wlcq_obs.Obs.incr c_hom_packed;
    note "ans_packed"
      [ ("kernel", string_of_int kernel); ("dp", string_of_int dp) ];
    Ans_packed
  end

(* The engines pass the table's dp/wl_parallel_min as [threshold]: 0
   forces parallel, max_int forces sequential, otherwise it is the
   minimum work/weight for fan-out. *)

let dp_domains ~requested ~subtrees ~work ~threshold =
  let nd =
    if requested <= 1 || subtrees <= 1 then 1
    else if threshold = 0 then min requested subtrees
    else if work < threshold then 1
    else min requested subtrees
  in
  Wlcq_obs.Obs.incr (if nd > 1 then c_par else c_seq);
  note
    (if nd > 1 then "dp_parallel" else "dp_sequential")
    [ ("domains", string_of_int nd); ("work", string_of_int work) ];
  nd

let wl_domains ~requested ~jobs ~weight ~threshold =
  let nd =
    if requested <= 1 || weight < threshold then 1
    else if threshold = 0 then min requested (max 1 jobs)
    else min requested (max 1 (jobs / !table.wl_chunk))
  in
  Wlcq_obs.Obs.incr (if nd > 1 then c_par else c_seq);
  note
    (if nd > 1 then "wl_parallel" else "wl_sequential")
    [ ("domains", string_of_int nd); ("weight", string_of_int weight) ];
  nd

let dense_fits ~bits ~cap =
  let fits = bits <= min cap !table.dense_key_bits in
  Wlcq_obs.Obs.incr (if fits then c_dense else c_sparse);
  fits

(* ------------------------------------------------------------------ *)
(* Canonical addressing                                                *)
(* ------------------------------------------------------------------ *)

type probe =
  | Probe_count of (int * int) list
  | Probe_decide of int
  | Probe_hom of int
  | Probe_graph

(* Predicted engine work in kernel steps, the unit of [answer_costs]'s
   kernel side; [None] for a decide the labeller cannot undercut.  A
   k-WL round visits n^k tuples, n choices and k colours each. *)
let probe_work probe ~n =
  match probe with
  | Probe_count costs ->
    Some
      (List.fold_left
         (fun acc (kernel, dp) ->
            sat_add acc (min kernel (sat_mul dp !table.enum_answers_max)))
         0 costs)
  | Probe_decide k ->
    if k <= 1 then None else Some (sat_mul k (sat_pow n (k + 1)))
  | Probe_hom work -> Some work
  | Probe_graph -> Some (sat_pow 2 n)

let address_nodes probe ~n ~m =
  match probe_work probe ~n with
  | None -> 0
  | Some work ->
    let node = max 1 (sat_mul !table.canon_node_steps (n + m)) in
    (* less the labelling's fixed costs (the partition, the first
       refinement, the leaf's words and their digest): about two
       nodes *)
    let nodes = (work / node) - 2 in
    (match probe with
     (* a k-WL verdict pays k * n^(k+1) per round: always worth a
        probe *)
     | Probe_decide _ -> max 1 nodes
     (* a graph whose group is the full symmetric group needs
        n(n+1)/2 nodes; never refuse a small graph what it needs.  Past
        the cap on its 2^n price, a graph gets the price alone, so
        large ones are not labelled beyond it. *)
     | Probe_graph when work < sat_cap -> max nodes ((n + 1) * (n + 1) / 2)
     | Probe_graph | Probe_count _ | Probe_hom _ -> max 0 nodes)

let choose_address probe ~n ~m =
  let nodes = address_nodes probe ~n ~m in
  Wlcq_obs.Obs.incr (if nodes > 0 then c_address else c_compute);
  nodes
