(* Differential tests for the adaptive dispatch layer (Wlcq_dispatch):
   every engine a count can take — brute and packed, steered through
   the calibration table, forced-sequential and forced-parallel DPs,
   and the calibrated default — must return identical counts on random
   instances and CFI pairs, and agree with the reference oracles; the
   cost-model decision functions are pinned on tiny/huge inputs so
   calibration edits cannot silently change routing. *)

open Wlcq_graph
module Dispatch = Wlcq_dispatch.Dispatch
module Prng = Wlcq_util.Prng
module Bigint = Wlcq_util.Bigint
module Td_count = Wlcq_hom.Td_count
module Fast_count = Wlcq_core.Fast_count
module Cq = Wlcq_core.Cq
module Gen_query = Wlcq_core.Gen_query
module Kwl = Wlcq_wl.Kwl
module Pairs = Wlcq_cfi.Pairs
module Nice_count = Wlcq_oracle.Nice_count
module Td_ref = Wlcq_oracle.Td_ref
module Fast_ref = Wlcq_oracle.Fast_ref
module Steer = Wlcq_oracle.Steer
module Fanout = Wlcq_oracle.Fanout
module Obs = Wlcq_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with the k-WL fan-out minimum forced ([0] always fans out,
   [max_int] never does), restoring the default table. *)
let with_wl_parallel_min v f =
  Steer.with_calibration
    { Dispatch.default_calibration with Dispatch.wl_parallel_min = v } f

let agree_on to_string results =
  match results with
  | [] -> true
  | (_, first) :: rest ->
    List.for_all (fun (_, v) -> String.equal (to_string v) (to_string first))
      rest

(* [count] under the default table and steered to each engine, plus
   the reference oracle called directly. *)
let engine_results ~reference count =
  [ ("auto", count ());
    ("brute", Steer.with_calibration Steer.brute count);
    ("packed", Steer.with_calibration Steer.packed count);
    ("reference", reference ()) ]

(* ------------------------------------------------------------------ *)
(* Differential: homomorphism counting engines                         *)
(* ------------------------------------------------------------------ *)

let qcheck_td_engines_agree =
  QCheck.Test.make ~name:"Td_count: all engines agree on random gnp"
    ~count:40
    QCheck.(pair (int_range 3 9) (int_bound 100000))
    (fun (n, seed) ->
       let rng = Prng.create seed in
       let h = Gen.gnp rng 4 0.6 in
       let g = Gen.gnp rng n 0.4 in
       agree_on Bigint.to_string
         (engine_results
            ~reference:(fun () -> Td_ref.count h g)
            (fun () -> Td_count.count h g)))

let qcheck_nice_engines_agree =
  QCheck.Test.make ~name:"Nice_count: all engines agree on random gnp"
    ~count:40
    QCheck.(pair (int_range 3 9) (int_bound 100000))
    (fun (n, seed) ->
       let rng = Prng.create seed in
       let h = Gen.gnp rng 4 0.6 in
       let g = Gen.gnp rng n 0.4 in
       agree_on Bigint.to_string
         (engine_results
            ~reference:(fun () -> Nice_count.count_reference h g)
            (fun () -> Nice_count.count h g)))

let qcheck_td_seq_par_agree =
  QCheck.Test.make
    ~name:"Td_count: forced-seq = forced-par on random gnp" ~count:25
    QCheck.(pair (int_range 4 10) (int_bound 100000))
    (fun (n, seed) ->
       let rng = Prng.create seed in
       (* K1,3 decomposed around its centre at node 0, where the DP
          roots: three independent subtrees to fan out over *)
       let h, d = Fanout.star 3 in
       let g = Gen.gnp rng n 0.4 in
       let run threshold =
         Steer.with_calibration
           { Steer.packed with Dispatch.dp_parallel_min = threshold }
           (fun () -> Td_count.count_with_decomposition d h g)
       in
       let seq = run max_int in
       let par, fanned = Fanout.fanned_out (fun () -> run 0) in
       fanned && Bigint.equal seq par)

(* ------------------------------------------------------------------ *)
(* Differential: answer counting                                       *)
(* ------------------------------------------------------------------ *)

let qcheck_answers_engines_agree =
  QCheck.Test.make
    ~name:"Fast_count: all engines agree with Cq on random queries"
    ~count:40
    QCheck.(pair (int_range 3 8) (int_bound 100000))
    (fun (n, seed) ->
       let rng = Prng.create seed in
       let q = Gen_query.random_connected rng ~num_vars:5 ~num_free:2
           ~edge_prob:0.4 in
       let g = Gen.gnp rng n 0.5 in
       let enumerated = Bigint.of_int (Cq.count_answers q g) in
       let results =
         engine_results
           ~reference:(fun () -> Fast_ref.count_answers q g)
           (fun () -> Fast_count.count_answers q g)
       in
       agree_on Bigint.to_string (("cq", enumerated) :: results))

(* A random CQ over the free variables 0..k-1: one to three quantified
   components of one or two vertices, each attached to one to three
   distinct free variables, H[X] edges with probability 1/4, and in one
   case out of three an unattached quantified edge or triangle.  Free
   variables that nothing touches stay isolated in H. *)
let random_mixed_cq rng ~k =
  let edges = ref [] and next = ref k in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  for _ = 0 to Prng.int rng 3 do
    let y = fresh () in
    let members =
      if Prng.bool rng then begin
        let y' = fresh () in
        edges := (y, y') :: !edges;
        [| y; y' |]
      end
      else [| y |]
    in
    let xs = Array.init k Fun.id in
    Prng.shuffle rng xs;
    for i = 0 to Prng.int rng (min 3 k) do
      edges := (xs.(i), members.(Prng.int rng (Array.length members))) :: !edges
    done
  done;
  for u = 0 to k - 1 do
    for v = u + 1 to k - 1 do
      if Prng.int rng 4 = 0 then edges := (u, v) :: !edges
    done
  done;
  if Prng.int rng 3 = 0 then begin
    let a = fresh () and b = fresh () in
    edges := (a, b) :: !edges;
    if Prng.bool rng then begin
      let c = fresh () in
      edges := (a, c) :: (b, c) :: !edges
    end
  end;
  Cq.make (Graph.create !next !edges) (List.init k Fun.id)

(* A host of 3-8 vertices, sometimes with two isolated vertices added;
   or, for [big], a sparse one of 63-70 vertices whose last four are
   isolated, so the kernel's rows take two words. *)
let random_host rng ~big =
  if big then begin
    let n = 63 + Prng.int rng 8 in
    Graph.create n (Graph.edges (Gen.gnp rng (n - 4) 0.08))
  end
  else begin
    let n = 3 + Prng.int rng 6 in
    let g = Gen.gnp rng n 0.5 in
    if Prng.bool rng then Graph.create (n + 2) (Graph.edges g) else g
  end

let qcheck_kernel_agrees =
  QCheck.Test.make
    ~name:"Fast_count: kernel = Cq = packed DP on mixed queries" ~count:150
    QCheck.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (k, seed) ->
       let rng = Prng.create seed in
       (* two-word hosts only under at most two free variables: the
          enumeration oracle pays ng^|X| *)
       let big = k <= 2 && seed mod 4 = 0 in
       let q = random_mixed_cq rng ~k in
       let g = random_host rng ~big in
       let auto = Fast_count.count_answers q g in
       Bigint.equal auto (Bigint.of_int (Cq.count_answers q g))
       && Bigint.equal auto
         (Steer.with_calibration Steer.packed (fun () ->
              Fast_count.count_answers q g)))

let test_kernel_differential () =
  let chose_enum () =
    match Obs.find_counter "dispatch.chose_enum" with
    | Some c -> Obs.counter_value c
    | None -> 0
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let before = chose_enum () in
  QCheck.Test.check_exn qcheck_kernel_agrees;
  (* the default table must have routed counts to the kernel, or the
     property compared the DP with itself *)
  check_bool "the kernel answered" true (chose_enum () > before)

(* Each counting engine reports its tables and candidates into its own
   family of seven counters; wlbench reads both families' dp_entries
   per request, so neither engine may move the other's. *)
let family prefix =
  List.map
    (fun c -> prefix ^ "." ^ c)
    [ "dp_entries"; "packed_keys"; "hashed_keys"; "int63_values";
      "bigint_promotions"; "candidates_total"; "candidates_pruned" ]

let counter_value name =
  match Obs.find_counter name with Some c -> Obs.counter_value c | None -> 0

(* how far [f] moves each of [names], with metrics armed *)
let moved names f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let before = List.map counter_value names in
  f ();
  List.map2 (fun name b -> (name, counter_value name - b)) names before

let check_family_moved label prefix deltas =
  let d c =
    Option.value ~default:0 (List.assoc_opt (prefix ^ "." ^ c) deltas)
  in
  List.iter
    (fun c -> check_bool (label ^ " moves " ^ prefix ^ "." ^ c) true (d c > 0))
    [ "dp_entries"; "packed_keys"; "int63_values"; "candidates_total";
      "candidates_pruned" ];
  (* no bag here is wide enough to hash, nor any count past int63, so
     those two only complete the partitions of dp_entries *)
  check_int (label ^ ": packed + hashed keys") (d "dp_entries")
    (d "packed_keys" + d "hashed_keys");
  check_int (label ^ ": int63 + promoted values") (d "dp_entries")
    (d "int63_values" + d "bigint_promotions")

let check_family_still label deltas =
  List.iter (fun (name, v) -> check_int (label ^ " leaves " ^ name) 0 v) deltas

let test_counter_families_apart () =
  (* component checks only: a 3-free quantified path; the two isolated
     host vertices are pruned from every candidate set *)
  let q =
    (Wlcq_core.Parser.parse_exn
       "(x0, x1, x2) := exists y0 y1 . E(x0, y0) & E(y0, x1) & E(x1, y1) \
        & E(y1, x2)").Wlcq_core.Parser.query
  in
  let g = Ops.disjoint_union (Builders.petersen ()) (Graph.empty 2) in
  let fast = family "fast_count" and td = family "td_count" in
  Steer.with_calibration Steer.packed (fun () ->
      let deltas =
        moved (fast @ td) (fun () ->
            check_bool "packed answer count" true
              (Bigint.equal
                 (Fast_count.count_answers q g)
                 (Bigint.of_int (Cq.count_answers q g))))
      in
      check_family_moved "Fast_count" "fast_count" deltas;
      check_family_still "Fast_count"
        (List.filter (fun (name, _) -> List.mem name td) deltas);
      let deltas =
        moved (fast @ td) (fun () ->
            check_bool "packed hom count" true
              (Bigint.equal
                 (Td_count.count (Builders.cycle 5) g)
                 (Td_ref.count (Builders.cycle 5) g)))
      in
      check_family_moved "Td_count" "td_count" deltas;
      check_family_still "Td_count"
        (List.filter (fun (name, _) -> List.mem name fast) deltas))

(* ------------------------------------------------------------------ *)
(* Differential: k-WL on random graphs and CFI pairs                   *)
(* ------------------------------------------------------------------ *)

let qcheck_kwl_seq_par_agree =
  QCheck.Test.make
    ~name:"Kwl: forced-seq = forced-par = reference on random pairs"
    ~count:20
    QCheck.(pair (int_range 4 8) (int_bound 100000))
    (fun (n, seed) ->
       let rng = Prng.create seed in
       let g1 = Gen.gnp rng n 0.5 in
       let g2 = Gen.gnp rng n 0.5 in
       let seq =
         with_wl_parallel_min max_int (fun () ->
             Kwl.equivalent 2 g1 g2)
       in
       let par =
         with_wl_parallel_min 0 (fun () ->
             Kwl.equivalent 2 g1 g2)
       in
       Bool.equal seq par && Bool.equal seq (Kwl.equivalent_reference 2 g1 g2))

let test_kwl_cfi_pair_engines () =
  (* the classic CFI separation on a twisted pair over C6 — identical
     verdicts under every parallelism forcing (Kwl handles k >= 2;
     k = 1 belongs to Refinement) *)
  let a, b = Pairs.twisted_pair (Builders.cycle 6) in
  let g1 = a.Wlcq_cfi.Cfi.graph and g2 = b.Wlcq_cfi.Cfi.graph in
  List.iter
    (fun k ->
       let expected = Kwl.equivalent_reference k g1 g2 in
       List.iter
         (fun threshold ->
            let got =
              with_wl_parallel_min threshold (fun () ->
                  Kwl.equivalent k g1 g2)
            in
            check_bool
              (Printf.sprintf "CFI pair k=%d threshold=%d" k threshold)
              expected got)
         [ 0; max_int ])
    [ 2; 3 ]

let test_cfi_hom_counts_engines () =
  (* hom counts into the twisted CFI graphs agree across engines and
     differ between the pair for an odd-cycle pattern (Theorem: the
     pair is hom-distinguished by graphs of treewidth < k) *)
  let a, b = Pairs.twisted_pair (Builders.cycle 5) in
  let g1 = a.Wlcq_cfi.Cfi.graph and g2 = b.Wlcq_cfi.Cfi.graph in
  let h = Builders.cycle 5 in
  List.iter
    (fun (tag, g) ->
       check_bool ("engines agree on cfi " ^ tag) true
         (agree_on Bigint.to_string
            (engine_results
               ~reference:(fun () -> Td_ref.count h g)
               (fun () -> Td_count.count h g))))
    [ ("g1", g1); ("g2", g2) ]

(* ------------------------------------------------------------------ *)
(* The cost model, pinned                                              *)
(* ------------------------------------------------------------------ *)

let test_choose_hom_pinned () =
  (* tiny: P2 -> P3 has brute cost 3 * 2 * 2 = 12 <= brute_hom_max *)
  check_bool "tiny instance routes to brute" true
    (match Dispatch.choose_hom ~nh:2 ~ng:3 ~mg:2 with
     | Dispatch.Hom_brute -> true
     | Dispatch.Hom_packed -> false);
  (* huge: brute cost saturates far beyond the cutoff *)
  check_bool "huge instance routes to packed" true
    (match Dispatch.choose_hom ~nh:6 ~ng:100 ~mg:500 with
     | Dispatch.Hom_packed -> true
     | Dispatch.Hom_brute -> false);
  (* a large pattern over a sparse target must never go to brute: the
     average degree floors to 1 but real backtracking branches on the
     target's max degree (the Lemma 22 F_ℓ family over a near-matching
     target used to hang here) *)
  check_bool "large pattern over sparse target routes to packed" true
    (match Dispatch.choose_hom ~nh:193 ~ng:4 ~mg:2 with
     | Dispatch.Hom_packed -> true
     | Dispatch.Hom_brute -> false);
  (* the steering tables route past the model in both directions *)
  Steer.with_calibration Steer.brute (fun () ->
      check_bool "steered brute on huge" true
        (match Dispatch.choose_hom ~nh:6 ~ng:100 ~mg:500 with
         | Dispatch.Hom_brute -> true
         | Dispatch.Hom_packed -> false));
  Steer.with_calibration Steer.packed (fun () ->
      check_bool "steered packed on tiny" true
        (match Dispatch.choose_hom ~nh:2 ~ng:3 ~mg:2 with
         | Dispatch.Hom_packed -> true
         | Dispatch.Hom_brute -> false);
      check_bool "steered packed prunes tiny work" true
        (Dispatch.prune_candidates ~work:1))

let test_choose_answers_pinned () =
  (* [comps] lists (|C|, |δ_C|) per attached quantified component *)
  let routes_to_enum ~nx ?(free_edges = 0) comps ~ng ~mg =
    match Dispatch.choose_answers ~nx ~free_edges ~comps ~ng ~mg with
    | Dispatch.Ans_enum -> true
    | Dispatch.Ans_packed -> false
  in
  (* star3: one sweep over the 3-vertex path x1 - y - x2 (200·3·2^2)
     plus a join of 200^2 row ANDs, against 200^3 pinned searches *)
  Alcotest.(check (pair int int)) "star3 costs" (42_400, 8_000_600)
    (Dispatch.answer_costs ~nx:3 ~free_edges:0 ~comps:[ (1, 3) ] ~ng:200
       ~mg:200);
  (* the pool's two path2 slots, which the DP ran 10-20x slower *)
  check_bool "path2 on 40 vertices / 151 edges routes to the kernel" true
    (routes_to_enum ~nx:2 [ (2, 2) ] ~ng:40 ~mg:151);
  check_bool "star3 on 200 vertices / 200 edges routes to the kernel" true
    (routes_to_enum ~nx:3 [ (1, 3) ] ~ng:200 ~mg:200);
  check_bool "star2 on a 32-clique routes to the kernel" true
    (routes_to_enum ~nx:2 [ (1, 2) ] ~ng:32 ~mg:496);
  (* a join of ng^(nx-1) row ANDs against a DP whose every bag has two
     free variables *)
  check_bool "5-free quantified path on a 24-clique stays packed" false
    (routes_to_enum ~nx:5 (List.init 4 (fun _ -> (1, 2))) ~ng:24 ~mg:276);
  check_bool "full 5-path on a 24-clique stays packed" false
    (routes_to_enum ~nx:5 ~free_edges:4 [] ~ng:24 ~mg:276);
  (* the kernel's estimate saturates: 10^20 answers are the DP's *)
  check_bool "10 free variables over a 100-clique stay packed" false
    (routes_to_enum ~nx:10 (List.init 9 (fun _ -> (1, 2))) ~ng:100 ~mg:4950);
  Steer.with_calibration Steer.packed (fun () ->
      check_bool "steered packed answers" false
        (routes_to_enum ~nx:2 [ (1, 2) ] ~ng:9 ~mg:12));
  Steer.with_calibration Steer.brute (fun () ->
      check_bool "steered kernel answers" true
        (routes_to_enum ~nx:5 (List.init 4 (fun _ -> (1, 2))) ~ng:24 ~mg:276);
      check_bool "steered kernel leaves saturated joins packed" false
        (routes_to_enum ~nx:10 (List.init 9 (fun _ -> (1, 2))) ~ng:100
           ~mg:4950))

let test_parallel_decisions_pinned () =
  (* the threshold contract: max_int forces sequential, 0 forces
     parallel, otherwise work decides *)
  check_int "dp: forced sequential" 1
    (Dispatch.dp_domains ~requested:8 ~subtrees:4 ~work:1_000_000
       ~threshold:max_int);
  check_int "dp: forced parallel" 4
    (Dispatch.dp_domains ~requested:8 ~subtrees:4 ~work:1 ~threshold:0);
  check_int "dp: below threshold" 1
    (Dispatch.dp_domains ~requested:8 ~subtrees:4 ~work:10 ~threshold:100);
  check_int "dp: above threshold" 4
    (Dispatch.dp_domains ~requested:8 ~subtrees:4 ~work:200 ~threshold:100);
  check_int "dp: one domain requested" 1
    (Dispatch.dp_domains ~requested:1 ~subtrees:4 ~work:200 ~threshold:0);
  check_int "wl: forced sequential" 1
    (Dispatch.wl_domains ~requested:8 ~jobs:4096 ~weight:1_000_000
       ~threshold:max_int);
  check_int "wl: forced parallel ignores chunking" 8
    (Dispatch.wl_domains ~requested:8 ~jobs:4096 ~weight:1 ~threshold:0);
  check_int "wl: below weight threshold" 1
    (Dispatch.wl_domains ~requested:8 ~jobs:4096 ~weight:10 ~threshold:100);
  check_int "wl: chunked above threshold" 8
    (Dispatch.wl_domains ~requested:8 ~jobs:4096 ~weight:200 ~threshold:100)

let test_dense_fits_pinned () =
  check_bool "small key is dense" true (Dispatch.dense_fits ~bits:8 ~cap:30);
  check_bool "wide key is sparse" false
    (Dispatch.dense_fits ~bits:40 ~cap:30);
  (* the structural cap binds even when the calibration allows more *)
  check_bool "structural cap binds" false
    (Dispatch.dense_fits ~bits:12 ~cap:10)

let test_calibration_roundtrip () =
  let d = Dispatch.default_calibration in
  Dispatch.set_calibration { d with Dispatch.brute_hom_max = 0 };
  Fun.protect ~finally:Dispatch.reset_calibration (fun () ->
      check_bool "zeroed cutoff reroutes tiny instance" true
        (match Dispatch.choose_hom ~nh:2 ~ng:3 ~mg:2 with
         | Dispatch.Hom_packed -> true
         | Dispatch.Hom_brute -> false));
  check_bool "reset restores routing" true
    (match Dispatch.choose_hom ~nh:2 ~ng:3 ~mg:2 with
     | Dispatch.Hom_brute -> true
     | Dispatch.Hom_packed -> false)

let test_brute_cost_saturates () =
  check_bool "saturated cost stays within cap" true
    (Dispatch.brute_cost ~nh:64 ~ng:1_000_000 ~mg:500_000_000
     <= Dispatch.sat_cap)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ qcheck_td_engines_agree; qcheck_nice_engines_agree;
      qcheck_td_seq_par_agree; qcheck_answers_engines_agree;
      qcheck_kwl_seq_par_agree ]

let () =
  Alcotest.run "wlcq_dispatch"
    [
      ( "differential",
        qsuite
        @ [
            Alcotest.test_case "CFI pair under all parallel forcings"
              `Quick test_kwl_cfi_pair_engines;
            Alcotest.test_case "CFI hom counts across engines" `Quick
              test_cfi_hom_counts_engines;
            Alcotest.test_case "kernel = Cq = packed on mixed queries" `Quick
              test_kernel_differential;
            Alcotest.test_case "counter families stay apart" `Quick
              test_counter_families_apart;
          ] );
      ( "cost model",
        [
          Alcotest.test_case "choose_hom pinned" `Quick
            test_choose_hom_pinned;
          Alcotest.test_case "choose_answers pinned" `Quick
            test_choose_answers_pinned;
          Alcotest.test_case "parallel decisions pinned" `Quick
            test_parallel_decisions_pinned;
          Alcotest.test_case "dense_fits pinned" `Quick
            test_dense_fits_pinned;
          Alcotest.test_case "calibration roundtrip" `Quick
            test_calibration_roundtrip;
          Alcotest.test_case "brute_cost saturates" `Quick
            test_brute_cost_saturates;
        ] );
    ]
