open Wlcq_graph
open Wlcq_hom
module Nice_count = Wlcq_oracle.Nice_count
module Td_ref = Wlcq_oracle.Td_ref
module Fanout = Wlcq_oracle.Fanout
module Steer = Wlcq_oracle.Steer
module Dispatch = Wlcq_dispatch.Dispatch
module Prng = Wlcq_util.Prng
module Bigint = Wlcq_util.Bigint
module Budget = Wlcq_robust.Budget

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Brute                                                               *)
(* ------------------------------------------------------------------ *)

let test_known_hom_counts () =
  (* Hom(K2, G) = 2m; Hom(K1, G) = n *)
  let g = Builders.petersen () in
  check_int "Hom(K1,petersen)" 10 (Brute.count (Builders.clique 1) g);
  check_int "Hom(K2,petersen)" 30 (Brute.count (Builders.clique 2) g);
  (* triangles: petersen is triangle-free *)
  check_int "Hom(K3,petersen)" 0 (Brute.count (Builders.clique 3) g);
  (* Hom(K3,K3) = 6, Hom(C5,K3): closed walks... use known small case
     Hom(P3, K3) = 3*2*2 = 12 *)
  check_int "Hom(K3,K3)" 6 (Brute.count (Builders.clique 3) (Builders.clique 3));
  check_int "Hom(P3,K3)" 12 (Brute.count (Builders.path 3) (Builders.clique 3))

let test_hom_walks () =
  (* |Hom(P_k, G)| counts walks of length k-1; in C4 every vertex has 2
     neighbours so |Hom(P3, C4)| = 4*2*2 = 16 *)
  check_int "Hom(P3,C4)" 16 (Brute.count (Builders.path 3) (Builders.cycle 4));
  (* homs from C4 into K2: 4-cycles map onto an edge back and forth = 2 *)
  check_int "Hom(C4,K2)" 2 (Brute.count (Builders.cycle 4) (Builders.clique 2));
  (* no homs from odd cycle into bipartite graph *)
  check_int "Hom(C5,C6)" 0 (Brute.count (Builders.cycle 5) (Builders.cycle 6))

let test_hom_pins () =
  let p3 = Builders.path 3 in
  let c4 = Builders.cycle 4 in
  (* pinning the middle of P3 to a fixed vertex: 2*2 = 4 *)
  check_int "pinned middle" 4 (Brute.count ~pins:[ (1, 0) ] p3 c4);
  (* pinning both endpoints to adjacent vertices: middle must be common
     neighbour of 0 and 1 in C4: none *)
  check_int "pinned ends adjacent" 0
    (Brute.count ~pins:[ (0, 0); (2, 1) ] p3 c4);
  (* pinning both endpoints to the same vertex: 2 common neighbours *)
  check_int "pinned ends equal" 2 (Brute.count ~pins:[ (0, 0); (2, 0) ] p3 c4)

let test_hom_empty_cases () =
  check_int "empty pattern" 1 (Brute.count (Graph.empty 0) (Builders.cycle 4));
  check_int "empty target" 0 (Brute.count (Builders.path 2) (Graph.empty 0));
  (* pattern with isolated vertices: each contributes a factor n *)
  check_int "isolated vertices" 16
    (Brute.count (Graph.empty 2) (Builders.cycle 4))

let test_enumerate_valid () =
  let h = Builders.cycle 3 and g = Builders.clique 4 in
  let homs = Brute.enumerate h g in
  check_int "Hom(C3,K4) count" 24 (List.length homs);
  check_bool "all are homomorphisms" true
    (List.for_all (Brute.is_homomorphism h g) homs);
  let distinct = List.sort_uniq Wlcq_util.Ordering.int_array homs in
  check_int "no duplicates" 24 (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Td_count                                                            *)
(* ------------------------------------------------------------------ *)

let test_td_matches_brute_known () =
  let cases =
    [
      (Builders.path 4, Builders.petersen ());
      (Builders.cycle 5, Builders.clique 4);
      (Builders.star 3, Builders.cycle 6);
      (Builders.clique 3, Builders.wheel 5);
      (Builders.two_triangles (), Builders.clique 4);
      (Builders.grid 2 3, Builders.clique 3);
      (Graph.empty 2, Builders.cycle 4);
    ]
  in
  List.iter
    (fun (h, g) ->
       let brute = Brute.count h g in
       let td = Td_count.count h g in
       check_bool
         (Printf.sprintf "td=brute on %s -> %s" (Graph.to_string h)
            (Graph.to_string g))
         true
         (Bigint.equal td (Bigint.of_int brute)))
    cases

let test_td_large_count () =
  (* Hom(star_5, K10): centre 10 choices, each leaf 9 -> 10*9^5 *)
  let v = Td_count.count (Builders.star 5) (Builders.clique 10) in
  check_bool "star into clique" true
    (Bigint.equal v (Bigint.of_int (10 * 59049)));
  (* edgeless pattern with 12 vertices into K20: 20^12 overflows 32-bit
     ranges comfortably; check against pow *)
  let v = Td_count.count (Graph.empty 12) (Builders.clique 20) in
  check_bool "20^12" true (Bigint.equal v (Bigint.pow (Bigint.of_int 20) 12))

let test_nice_count_matches () =
  let cases =
    [
      (Builders.path 4, Builders.petersen ());
      (Builders.cycle 5, Builders.clique 4);
      (Builders.star 3, Builders.cycle 6);
      (Builders.two_triangles (), Builders.clique 4);
      (Graph.empty 0, Builders.cycle 4);
      (Graph.empty 2, Builders.cycle 4);
      (Builders.path 2, Graph.empty 0);
    ]
  in
  List.iter
    (fun (h, g) ->
       check_bool "nice = brute" true
         (Bigint.equal (Nice_count.count h g)
            (Bigint.of_int (Brute.count h g))))
    cases

let td_qcheck =
  [
    QCheck.Test.make ~name:"nice count equals brute count on random pairs"
      ~count:60
      QCheck.(triple (int_range 1 6) (int_range 1 7) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.5 in
         Bigint.equal (Nice_count.count h g) (Bigint.of_int (Brute.count h g)));
    QCheck.Test.make ~name:"td count equals brute count on random pairs"
      ~count:60
      QCheck.(triple (int_range 1 6) (int_range 1 7) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.5 in
         Bigint.equal (Td_count.count h g) (Bigint.of_int (Brute.count h g)));
    QCheck.Test.make ~name:"hom counts multiply over tensor products"
      ~count:30
      QCheck.(triple (int_range 1 4) (int_range 1 4) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g1 = Gen.gnp rng ng 0.5 in
         let g2 = Gen.gnp rng ng 0.6 in
         Brute.count h (Ops.tensor_product g1 g2)
         = Brute.count h g1 * Brute.count h g2);
    QCheck.Test.make ~name:"hom counts multiply over disjoint patterns"
      ~count:30
      QCheck.(triple (int_range 1 4) (int_range 1 5) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h1 = Gen.gnp rng nh 0.5 in
         let h2 = Gen.gnp rng nh 0.4 in
         let g = Gen.gnp rng ng 0.5 in
         Brute.count (Ops.disjoint_union h1 h2) g
         = Brute.count h1 g * Brute.count h2 g);
  ]

(* ------------------------------------------------------------------ *)
(* Packed engines vs reference oracles                                 *)
(* ------------------------------------------------------------------ *)

module Bitset = Wlcq_util.Bitset

let test_dp_key_roundtrip () =
  let c = Dp_key.codec ~n:10 in
  let img = [| 3; 9; 0; 7 |] in
  let key = Dp_key.pack c img in
  let dst = Array.make 4 (-1) in
  Dp_key.unpack c key ~arity:4 dst;
  check_bool "pack/unpack roundtrip" true
    (Wlcq_util.Ordering.equal_array Int.equal img dst);
  let r = Dp_key.restrict_packed c key [| 2; 1 |] in
  Dp_key.unpack c r ~arity:2 dst;
  check_int "restricted coord 0" 0 dst.(0);
  check_int "restricted coord 1" 9 dst.(1)

let test_dp_key_hashed_matches_packed () =
  (* The same logical table under a packed codec and under a codec too
     wide to pack (forcing the hashed fallback): identical totals and
     projections. *)
  let cp = Dp_key.codec ~n:8 in
  let ch = Dp_key.codec ~n:(1 lsl 21) in
  check_bool "narrow codec packs" true (Dp_key.packs cp ~arity:4);
  check_bool "wide codec does not pack" false (Dp_key.packs ch ~arity:4);
  let tp = Dp_key.table cp ~arity:4 in
  let th = Dp_key.table ch ~arity:4 in
  check_bool "packed mode" true (Dp_key.is_packed tp);
  check_bool "hashed mode" false (Dp_key.is_packed th);
  let entries =
    [ ([| 1; 2; 3; 4 |], 5); ([| 4; 3; 2; 1 |], 7); ([| 1; 2; 3; 4 |], 2) ]
  in
  List.iter
    (fun (k, v) ->
       Dp_key.bump cp tp (Array.copy k) (Dp_key.Count.of_int v);
       Dp_key.bump ch th (Array.copy k) (Dp_key.Count.of_int v))
    entries;
  check_int "packed entries" 2 (Dp_key.length tp);
  check_int "hashed entries" 2 (Dp_key.length th);
  check_bool "totals agree" true
    (Bigint.equal
       (Dp_key.Count.to_bigint (Dp_key.total tp))
       (Dp_key.Count.to_bigint (Dp_key.total th)));
  let pos = [| 3; 0 |] in
  let pp = Dp_key.project cp tp pos in
  let ph = Dp_key.project ch th pos in
  check_bool "projection totals agree" true
    (Bigint.equal
       (Dp_key.Count.to_bigint (Dp_key.total pp))
       (Dp_key.Count.to_bigint (Dp_key.total ph)));
  (* look up the restriction of [1;2;3;4] (-> [4;1]) in both *)
  let images = [| 1; 2; 3; 4 |] in
  check_bool "projected lookup agrees" true
    (Bigint.equal
       (Dp_key.Count.to_bigint (Dp_key.find cp pp images pos))
       (Dp_key.Count.to_bigint (Dp_key.find ch ph images pos)))

let test_count_overflow_promotion () =
  let open Wlcq_util.Count in
  let near = of_int (max_int - 1) in
  check_bool "small stays small" true (is_small (add (of_int 1) (of_int 1)));
  let sum = add near near in
  check_bool "add promotes on overflow" false (is_small sum);
  check_bool "promoted add exact" true
    (Bigint.equal (to_bigint sum)
       (Bigint.add (Bigint.of_int (max_int - 1)) (Bigint.of_int (max_int - 1))));
  let prod = mul near near in
  check_bool "mul promotes on overflow" false (is_small prod);
  check_bool "promoted mul exact" true
    (Bigint.equal (to_bigint prod)
       (Bigint.mul (Bigint.of_int (max_int - 1)) (Bigint.of_int (max_int - 1))));
  check_bool "of_bigint normalises" true
    (is_small (of_bigint (Bigint.of_int 42)));
  check_bool "mul by zero" true (is_zero (mul (of_int 0) near))

let random_candidates rng nh ng =
  let sets =
    Array.init nh (fun _ ->
        let b = Bitset.create ng in
        for v = 0 to ng - 1 do
          if Prng.bool rng then Bitset.set b v
        done;
        b)
  in
  fun u -> sets.(u)

let counters = Td_count.counters "td_count"

(* [random_checks rng d] is 0 to 3 pure checks, each scoped on 1 to 3
   vertices of one non-empty bag of [d]; each keeps the image tuples
   whose salted hash is not divisible by 3. *)
let random_checks rng d =
  let bags =
    Array.of_list
      (List.filter_map
         (fun b ->
            match Bitset.to_list b with [] -> None | vs -> Some (Array.of_list vs))
         (Array.to_list d.Wlcq_treewidth.Decomposition.bags))
  in
  List.init (Prng.int rng 4) (fun _ ->
      let bag = Array.copy bags.(Prng.int rng (Array.length bags)) in
      Prng.shuffle rng bag;
      let scope = Array.sub bag 0 (1 + Prng.int rng (min 3 (Array.length bag))) in
      let salt = Prng.int rng 1_000_000 in
      let holds images =
        Array.fold_left (fun a v -> ((a * 31) + v) land 0xffffff) salt images
        mod 3
        <> 0
      in
      { Td_count.scope; holds })

(* |Hom(h, g)| filtered by [checks], by enumeration *)
let brute_checked checks h g =
  let n = ref 0 in
  Brute.iter h g (fun phi ->
      if
        List.for_all
          (fun { Td_count.scope; holds } -> holds (Array.map (Array.get phi) scope))
          checks
      then incr n);
  Bigint.of_int !n

(* A check raising [Budget.Exhausted] on its [n]-th call, under a live
   budget, on both schedules: the loop returns [Error] and the budget
   is tripped; the same run without the raise counts exactly. *)
let test_raising_check_trips () =
  let h, d = Fanout.union (Builders.path 3) (Builders.cycle 4) in
  let g = Builders.petersen () in
  let cand = Td_count.arc_consistent ~counters h g in
  (* the path's endpoints land on distinct vertices *)
  let check ~raise_at =
    let calls = Atomic.make 0 in
    { Td_count.scope = [| 0; 2 |];
      holds =
        (fun images ->
           if Atomic.fetch_and_add calls 1 + 1 = raise_at then
             raise (Budget.Exhausted Budget.Deadline);
           images.(0) <> images.(1)) }
  in
  let expected = brute_checked [ check ~raise_at:0 ] h g in
  List.iter
    (fun (schedule, threshold) ->
       Steer.with_calibration
         { Steer.packed with Dispatch.dp_parallel_min = threshold }
         (fun () ->
            let budget = Budget.create () in
            let tripped, fanned =
              Fanout.fanned_out (fun () ->
                  Td_count.run ~budget ~counters ~checks:[ check ~raise_at:5 ]
                    d h g cand)
            in
            check_bool (schedule ^ ": fanned out as forced") true
              (fanned || threshold > 0);
            (match tripped with
             | Error Budget.Deadline -> ()
             | Error r ->
               Alcotest.failf "%s: tripped by %s" schedule
                 (Budget.reason_to_string r)
             | Ok _ -> Alcotest.failf "%s: a raising check must trip" schedule);
            check_bool (schedule ^ ": budget tripped") true
              (Option.is_some (Budget.tripped budget));
            match
              Td_count.run ~budget:(Budget.create ()) ~counters
                ~checks:[ check ~raise_at:0 ] d h g cand
            with
            | Ok v ->
              check_bool (schedule ^ ": rerun exact") true (Bigint.equal v expected)
            | Error _ -> Alcotest.failf "%s: rerun tripped" schedule))
    [ ("parallel", 0); ("sequential", max_int) ]

let packed_vs_reference_qcheck =
  [
    QCheck.Test.make ~name:"packed td count equals reference oracle" ~count:80
      QCheck.(triple (int_range 1 7) (int_range 1 12) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.4 in
         Bigint.equal (Td_count.count h g) (Td_ref.count h g));
    QCheck.Test.make
      ~name:"packed td count equals reference under random candidates"
      ~count:60
      QCheck.(triple (int_range 1 6) (int_range 1 9) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.4 in
         let candidates = random_candidates rng nh ng in
         Bigint.equal
           (Td_count.count ~candidates h g)
           (Td_ref.count ~candidates h g));
    QCheck.Test.make
      ~name:"pins as singleton candidates match Brute ~pins" ~count:60
      QCheck.(triple (int_range 2 6) (int_range 2 8) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.5 in
         let u = Prng.int rng nh and v = Prng.int rng ng in
         let candidates w =
           if w = u then Bitset.singleton ng v else Bitset.full ng
         in
         Bigint.equal
           (Td_count.count ~candidates h g)
           (Bigint.of_int (Brute.count ~pins:[ (u, v) ] h g)));
    QCheck.Test.make
      ~name:"forced-parallel and forced-sequential runs byte-identical"
      ~count:40
      QCheck.(triple (int_range 2 5) (int_range 2 9) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         (* a disjoint-union pattern whose decomposition root (node 0,
            where the DP roots) has two independent subtrees, steered
            to the packed DP, so the fan-out path really runs *)
         let h, d =
           Fanout.union (Gen.gnp rng nh 0.6) (Gen.gnp rng nh 0.5)
         in
         let g = Gen.gnp rng ng 0.4 in
         (* the loop itself, with 0-3 checks: both schedules must count
            what a filtered enumeration counts *)
         let checks = random_checks rng d in
         let cand = Td_count.arc_consistent ~counters h g in
         let run threshold =
           Steer.with_calibration
             { Steer.packed with Dispatch.dp_parallel_min = threshold }
             (fun () ->
                ( Td_count.count_with_decomposition d h g,
                  Td_count.run ~budget:Budget.unlimited ~counters ~checks d
                    h g cand ))
         in
         let (par, par_checked), fanned =
           Fanout.fanned_out (fun () -> run 0)
         in
         let seq, seq_checked = run max_int in
         let expected = Bigint.to_string (brute_checked checks h g) in
         let checked = function
           | Ok v -> String.equal (Bigint.to_string v) expected
           | Error _ -> false
         in
         fanned
         && String.equal (Bigint.to_string par) (Bigint.to_string seq)
         && checked par_checked && checked seq_checked);
    QCheck.Test.make ~name:"packed nice count equals reference oracle"
      ~count:60
      QCheck.(triple (int_range 1 6) (int_range 1 9) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.4 in
         Bigint.equal (Nice_count.count h g) (Nice_count.count_reference h g));
    QCheck.Test.make
      ~name:"count_many equals independent reference counts on prefix chain"
      ~count:40
      QCheck.(triple (int_range 2 6) (int_range 1 8) (int_bound 100000))
      (fun (n, ng, seed) ->
         let rng = Prng.create seed in
         let hmax = Gen.gnp rng n 0.5 in
         let g = Gen.gnp rng ng 0.4 in
         let prefixes =
           List.init n (fun i ->
               let sub, _ = Ops.induced hmax (List.init (i + 1) (fun j -> j)) in
               sub)
         in
         let batch = Td_count.count_many prefixes g in
         let indiv = List.map (fun h -> Td_ref.count h g) prefixes in
         List.for_all2 Bigint.equal batch indiv);
    QCheck.Test.make
      ~name:"count_many under candidates equals per-pattern counts" ~count:30
      QCheck.(triple (int_range 2 5) (int_range 1 7) (int_bound 100000))
      (fun (n, ng, seed) ->
         let rng = Prng.create seed in
         let hs =
           List.init n (fun _ -> Gen.gnp rng (1 + Prng.int rng n) 0.5)
         in
         let g = Gen.gnp rng ng 0.4 in
         let max_nh =
           List.fold_left (fun a h -> max a (Graph.num_vertices h)) 1 hs
         in
         let candidates = random_candidates rng max_nh ng in
         let batch = Td_count.count_many ~candidates hs g in
         let indiv =
           List.map (fun h -> Td_ref.count ~candidates h g) hs
         in
         List.for_all2 Bigint.equal batch indiv);
  ]

(* ------------------------------------------------------------------ *)
(* Colored                                                             *)
(* ------------------------------------------------------------------ *)

let test_is_colouring () =
  let g = Builders.cycle 6 and f = Builders.clique 2 in
  check_bool "C6 is K2-colourable" true
    (Colored.is_colouring g f [| 0; 1; 0; 1; 0; 1 |]);
  check_bool "bad colouring rejected" false
    (Colored.is_colouring g f [| 0; 0; 1; 0; 1; 0 |])

let test_partition_identity () =
  (* Observation 31 on a concrete instance *)
  let h = Builders.path 3 in
  let g = Builders.cycle 6 in
  let f = Builders.clique 2 in
  let c = [| 0; 1; 0; 1; 0; 1 |] in
  let sum, total = Colored.partition_check ~h ~g ~f ~c in
  check_int "partition sums to total" total sum

let test_cp_hom () =
  (* G = two disjoint copies of H, coloured by the copy projection:
     colour-prescribed homs pick one vertex per colour class; for H=K2
     each copy contributes its edge in 1 prescribed way, and mixing
     copies is non-adjacent, so count = 2 *)
  let h = Builders.clique 2 in
  let g = Builders.matching 2 in
  let c = [| 0; 1; 0; 1 |] in
  check_int "cp homs in doubled K2" 2 (Colored.count_cp_hom ~h ~g ~c)

let colored_qcheck =
  [
    QCheck.Test.make ~name:"Observation 31: Hom_tau partitions Hom"
      ~count:30
      QCheck.(pair (int_range 1 4) (int_bound 100000))
      (fun (nh, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.6 in
         let f = Builders.clique 3 in
         (* G = tensor product F x K2 with projection colouring *)
         let g = Ops.tensor_product f (Builders.clique 2) in
         let c = Array.init (Graph.num_vertices g) (fun v -> v / 2) in
         let sum, total = Colored.partition_check ~h ~g ~f ~c in
         sum = total);
  ]

(* ------------------------------------------------------------------ *)
(* Inj                                                                 *)
(* ------------------------------------------------------------------ *)

let test_inj_known () =
  (* injective homs K3 -> K4: 4*3*2 = 24 *)
  check_int "Inj(K3,K4)" 24 (Inj.count (Builders.clique 3) (Builders.clique 4));
  (* injective homs P3 -> C5: 5*2*1 (each middle vertex, two directions,
     endpoints distinct automatically) = 10 ordered paths * ... direct:
     paths of length 2 in C5: 5 centres, 2 orders -> 10 *)
  check_int "Inj(P3,C5)" 10 (Inj.count (Builders.path 3) (Builders.cycle 5));
  check_int "Inj bigger pattern" 0
    (Inj.count (Builders.clique 4) (Builders.clique 3))

let test_inj_quotients_agree () =
  let cases =
    [
      (Builders.path 3, Builders.cycle 5);
      (Builders.star 3, Builders.clique 4);
      (Builders.cycle 4, Builders.clique 4);
      (Builders.clique 2, Builders.petersen ());
    ]
  in
  List.iter
    (fun (h, g) ->
       check_int "quotient IE agrees" (Inj.count h g)
         (Inj.count_by_quotients h g))
    cases

let test_subgraph_copies () =
  (* C5 contains 5 copies of P3; K4 contains 4 triangles *)
  check_int "P3 copies in C5" 5
    (Inj.count_subgraph_copies (Builders.path 3) (Builders.cycle 5));
  check_int "triangles in K4" 4
    (Inj.count_subgraph_copies (Builders.clique 3) (Builders.clique 4));
  check_int "edges of petersen" 15
    (Inj.count_subgraph_copies (Builders.clique 2) (Builders.petersen ()))

let inj_qcheck =
  [
    QCheck.Test.make ~name:"inclusion-exclusion over quotients" ~count:40
      QCheck.(triple (int_range 1 4) (int_range 1 5) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.5 in
         Inj.count h g = Inj.count_by_quotients h g);
    QCheck.Test.make ~name:"inj bounded by hom" ~count:40
      QCheck.(triple (int_range 1 4) (int_range 1 5) (int_bound 100000))
      (fun (nh, ng, seed) ->
         let rng = Prng.create seed in
         let h = Gen.gnp rng nh 0.5 in
         let g = Gen.gnp rng ng 0.5 in
         Inj.count h g <= Brute.count h g);
  ]

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)
  in
  Alcotest.run "wlcq_hom"
    [
      ( "brute",
        [
          Alcotest.test_case "known counts" `Quick test_known_hom_counts;
          Alcotest.test_case "walk counts" `Quick test_hom_walks;
          Alcotest.test_case "pins" `Quick test_hom_pins;
          Alcotest.test_case "empty cases" `Quick test_hom_empty_cases;
          Alcotest.test_case "enumerate" `Quick test_enumerate_valid;
        ] );
      ( "td_count",
        [
          Alcotest.test_case "matches brute" `Quick test_td_matches_brute_known;
          Alcotest.test_case "large counts" `Quick test_td_large_count;
          Alcotest.test_case "nice DP matches" `Quick test_nice_count_matches;
          Alcotest.test_case "a raising check is the run's trip" `Quick
            test_raising_check_trips;
        ] );
      qsuite "td-properties" td_qcheck;
      ( "packed-engine",
        [
          Alcotest.test_case "dp_key pack/unpack/restrict" `Quick
            test_dp_key_roundtrip;
          Alcotest.test_case "hashed fallback matches packed" `Quick
            test_dp_key_hashed_matches_packed;
          Alcotest.test_case "count overflow promotion" `Quick
            test_count_overflow_promotion;
        ] );
      qsuite "packed-vs-reference" packed_vs_reference_qcheck;
      ( "colored",
        [
          Alcotest.test_case "is_colouring" `Quick test_is_colouring;
          Alcotest.test_case "partition identity" `Quick
            test_partition_identity;
          Alcotest.test_case "cp homs" `Quick test_cp_hom;
        ] );
      qsuite "colored-properties" colored_qcheck;
      ( "inj",
        [
          Alcotest.test_case "known counts" `Quick test_inj_known;
          Alcotest.test_case "quotient IE" `Quick test_inj_quotients_agree;
          Alcotest.test_case "subgraph copies" `Quick test_subgraph_copies;
        ] );
      qsuite "inj-properties" inj_qcheck;
    ]
