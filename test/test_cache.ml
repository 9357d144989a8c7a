(* Tests for the content-addressed cache tier (Wlcq_cache) and the
   canonical forms that feed it.

   The load-bearing properties:

   - canonical labelling is invariant under relabelling (isomorphic
     inputs reach byte-identical canonical graphs and digests), and the
     returned permutation really maps the input onto its canonical
     form — this is what makes content addresses sound cache keys;
   - the tier is semantically invisible: cold (capacity 0), warm-miss
     and warm-hit runs of every memoised artifact return byte-identical
     results, including across permuted-isomorphic resubmission;
   - eviction under pressure stays sound: results remain correct, the
     size accounting balances, and a full clear returns the tier to
     empty. *)

open Wlcq_graph
module Cache = Wlcq_cache.Cache
module Exact = Wlcq_treewidth.Exact
module Decomposition = Wlcq_treewidth.Decomposition
module Heuristics = Wlcq_treewidth.Heuristics
module Td_count = Wlcq_hom.Td_count
module Cq = Wlcq_core.Cq
module Parser = Wlcq_core.Parser
module Wl_dimension = Wlcq_core.Wl_dimension
module Obs = Wlcq_obs.Obs
module Prng = Wlcq_util.Prng
module Bigint = Wlcq_util.Bigint
module Bitset = Wlcq_util.Bitset
module Perm = Wlcq_util.Perm

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rand_perm rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let counter_value name = Obs.counter_value (Obs.counter name)

(* every test drives the tier explicitly; start armed and empty *)
let reset_tier () =
  Obs.set_enabled true;
  Cache.set_capacity_mb 256;
  Cache.clear ()

(* byte-identical comparison for structured artifacts *)
let marshal v = Marshal.to_string v []

(* Only a graph whose exact decomposition takes a search is stored
   under its canonical address, so only its relabelled copies hit: when
   the heuristic bracket closes, the greedy order is cheaper to
   recompute than to canonically address, and the entry is keyed as
   labelled.  The tests of canonical hits therefore draw G(n, p) from
   [rng] until the bracket is open. *)
let rec open_gnp rng n p =
  let g = Gen.gnp rng n p in
  if Heuristics.lower_bound g < Heuristics.upper_bound g then g
  else open_gnp rng n p

(* ------------------------------------------------------------------ *)
(* Canonical forms                                                     *)
(* ------------------------------------------------------------------ *)

(* (graph seed, size, permutation seed) *)
let gen_instance =
  QCheck.make
    ~print:(fun (s, n, ps) -> Printf.sprintf "seed=%d n=%d pseed=%d" s n ps)
    QCheck.Gen.(triple (int_bound 10_000) (int_range 1 12) (int_bound 10_000))

let qcheck_canonical_invariance =
  QCheck.Test.make ~count:100 ~name:"canonical form is relabelling-invariant"
    gen_instance (fun (seed, n, pseed) ->
        let g = Gen.gnp (Prng.create (7 + seed)) n 0.4 in
        let p = rand_perm (Prng.create (13 + pseed)) n in
        let g' = Ops.relabel g p in
        let c = Iso.canonical_form g in
        let c' = Iso.canonical_form g' in
        String.equal c.Iso.digest c'.Iso.digest
        && Graph.equal c.Iso.canon c'.Iso.canon
        && Graph.equal (Ops.relabel g c.Iso.perm) c.Iso.canon
        && Graph.equal (Ops.relabel g' c'.Iso.perm) c'.Iso.canon)

let qcheck_address_invariance =
  QCheck.Test.make ~count:60 ~name:"Cache.address is relabelling-invariant"
    gen_instance (fun (seed, n, pseed) ->
        let g = Gen.gnp (Prng.create (19 + seed)) n 0.35 in
        let p = rand_perm (Prng.create (23 + pseed)) n in
        let a, _ = Cache.address g in
        let a', _ = Cache.address (Ops.relabel g p) in
        String.equal a a')

(* distinct graphs must not collide (digest injectivity up to iso on a
   small library of pairwise non-isomorphic graphs) *)
let test_addresses_separate () =
  let gs =
    [ Builders.path 5; Builders.cycle 5; Builders.cycle 6; Builders.clique 4;
      Builders.star 4; Gen.gnp (Prng.create 3) 8 0.4 ]
  in
  List.iteri
    (fun i gi ->
       List.iteri
         (fun j gj ->
            if i < j then
              Alcotest.(check bool)
                (Printf.sprintf "addresses %d/%d differ" i j)
                false
                (String.equal (fst (Cache.address gi))
                   (fst (Cache.address gj))))
         gs)
    gs

(* two colourings of one graph that differ only in their values are
   different inputs: a query whose variables are all free and the
   boolean query on the same graph must not share a digest *)
let test_colour_values_keyed () =
  let g = Builders.path 5 in
  let n = Graph.num_vertices g in
  let d c = (Iso.canonical_form ~init:(Array.make n c) g).Iso.digest in
  Alcotest.(check bool) "uniform 0 and uniform 1 differ" false
    (String.equal (d 0) (d 1));
  let q s = (Parser.parse_exn s).Parser.query in
  let digest s = let _, _, d = Cq.normal_form (q s) in d in
  Alcotest.(check bool) "full and boolean P5 differ" false
    (String.equal
       (digest "(a, b, c, d, e) := E(a, b) & E(b, c) & E(c, d) & E(d, e)")
       (digest "() := exists a b c d e . E(a, b) & E(b, c) & E(c, d) & E(d, e)"))

(* the labelling polls its budget once per node: a star on 3000
   vertices, whose search would visit millions of nodes, is declined
   within its 1 ms deadline, and [address] reports the trip instead of
   falling back *)
let test_labelling_budget () =
  let module Budget = Wlcq_robust.Budget in
  let g = Builders.star 3000 in
  let t0 = Sys.time () in
  let r =
    Cache.canonical_address
      ~budget:(Budget.create ~deadline_ms:1.0 ())
      ~nodes:max_int g
  in
  Alcotest.(check bool) "declined" true (Option.is_none r);
  Alcotest.(check bool) "within 1 s of CPU" true (Sys.time () -. t0 < 1.0);
  Alcotest.(check bool) "address raises on the trip" true
    (match Cache.address ~budget:(Budget.create ~deadline_ms:1.0 ()) g with
     | exception Budget.Exhausted Budget.Deadline -> true
     | _ -> false)

let qcheck_query_normal_form =
  (* the free-variable set rides along as an initial colouring: the
     normal form must be invariant under variable relabelling, and must
     keep free variables free *)
  QCheck.Test.make ~count:100
    ~name:"Cq.normal_form is relabelling-invariant" gen_instance
    (fun (seed, n, pseed) ->
       let rng = Prng.create (31 + seed) in
       let g = Gen.gnp rng n 0.4 in
       let free =
         List.filter (fun _ -> Prng.int rng 2 = 0) (Graph.vertices g)
       in
       let q = Cq.make g free in
       let p = rand_perm (Prng.create (37 + pseed)) n in
       let q' = Cq.relabel q p in
       let nf, perm, digest = Cq.normal_form q in
       let nf', _, digest' = Cq.normal_form q' in
       String.equal digest digest'
       && Graph.equal nf.Cq.graph nf'.Cq.graph
       && Bitset.equal nf.Cq.free nf'.Cq.free
       && Perm.is_permutation perm
       && Cq.num_free nf = Cq.num_free q)

(* ------------------------------------------------------------------ *)
(* Cold vs warm differentials                                          *)
(* ------------------------------------------------------------------ *)

(* run [f] with the tier disabled, then twice warm (miss-and-fill, then
   hit), and hand all three results to [agree] *)
let cold_warm_warm f =
  Cache.set_capacity_mb 0;
  let cold = f () in
  Cache.set_capacity_mb 256;
  Cache.clear ();
  let warm_miss = f () in
  let warm_hit = f () in
  (cold, warm_miss, warm_hit)

let test_differential_count () =
  reset_tier ();
  (* C5 -> G(30, .25) is DP-scale by the cost model, so the total is
     cacheable; the three runs must agree to the byte *)
  let h = Builders.cycle 5 in
  let g = Gen.gnp (Prng.create 11) 30 0.25 in
  let cold, wm, wh = cold_warm_warm (fun () -> Td_count.count h g) in
  Alcotest.(check string) "cold = warm-miss" (Bigint.to_string cold)
    (Bigint.to_string wm);
  Alcotest.(check string) "cold = warm-hit" (Bigint.to_string cold)
    (Bigint.to_string wh)

let test_differential_decomposition () =
  reset_tier ();
  let g = open_gnp (Prng.create 12) 13 0.35 in
  let cold, wm, wh =
    cold_warm_warm (fun () -> Exact.optimal_decomposition g)
  in
  List.iter
    (fun (name, d) ->
       Alcotest.(check bool) (name ^ " valid") true
         (Decomposition.is_valid_for d g))
    [ ("cold", cold); ("warm-miss", wm); ("warm-hit", wh) ];
  (* the hit path translates the stored canonical decomposition back
     through the inverse permutation; on the same-labelled graph that
     round-trip must reproduce the miss result byte-identically *)
  Alcotest.(check string) "warm-miss = warm-hit bytes" (marshal wm)
    (marshal wh);
  Alcotest.(check int) "cold width = warm width" (Decomposition.width cold)
    (Decomposition.width wh)

let test_differential_kwl_verdicts () =
  reset_tier ();
  let g1 = Builders.cycle 6 in
  let g2 = Ops.disjoint_union (Builders.cycle 3) (Builders.cycle 3) in
  let c, m, h = cold_warm_warm (fun () -> Wl_dimension.equivalent_cached 1 g1 g2) in
  Alcotest.(check bool) "verdict cold = warm-miss" c m;
  Alcotest.(check bool) "verdict cold = warm-hit" c h

let test_permuted_resubmission_hits () =
  reset_tier ();
  let g = open_gnp (Prng.create 21) 13 0.35 in
  let d = Exact.optimal_decomposition g in
  let hits0 = counter_value "cache.hit" in
  let p = rand_perm (Prng.create 22) (Graph.num_vertices g) in
  let g' = Ops.relabel g p in
  let d' = Exact.optimal_decomposition g' in
  Alcotest.(check bool) "permuted resubmission hit" true
    (counter_value "cache.hit" > hits0);
  Alcotest.(check bool) "translated decomposition valid for the copy" true
    (Decomposition.is_valid_for d' g');
  Alcotest.(check int) "same width" (Decomposition.width d)
    (Decomposition.width d')

(* the qcheck version of the same property, across artifacts *)
let qcheck_permuted_hit =
  QCheck.Test.make ~count:30
    ~name:"permuted-isomorphic resubmission hits the tier" gen_instance
    (fun (seed, n, pseed) ->
       (* 13..16 vertices: at most 12 the bracket almost always
          closes *)
       let n = 13 + (n mod 4) in
       reset_tier ();
       let g = open_gnp (Prng.create (41 + seed)) n 0.35 in
       let d = Exact.optimal_decomposition g in
       let hits0 = counter_value "cache.hit" in
       let p = rand_perm (Prng.create (43 + pseed)) n in
       let g' = Ops.relabel g p in
       let d' = Exact.optimal_decomposition g' in
       (* the greedy orders break ties by vertex id, so the copy's own
          bracket may close (about 1 draw in 7): it is then keyed as
          labelled, and misses *)
       let copy_open =
         Heuristics.lower_bound g' < Heuristics.upper_bound g'
       in
       Bool.equal (counter_value "cache.hit" > hits0) copy_open
       && Decomposition.is_valid_for d' g'
       && Decomposition.width d' = Decomposition.width d)

(* a closed bracket's decomposition is keyed on the graph as labelled,
   without canonical labelling: an identical resubmission hits, while a
   relabelled copy whose bracket also closes misses and is recomputed *)
let test_closed_bracket_keys_as_labelled () =
  reset_tier ();
  let closed g = Heuristics.lower_bound g >= Heuristics.upper_bound g in
  let g = Gen.gnp (Prng.create 21) 13 0.35 in
  Alcotest.(check bool) "bracket closed" true (closed g);
  let hits () = counter_value "tw.decomp_memo_hits"
  and misses () = counter_value "tw.decomp_memo_misses" in
  let misses0 = misses () in
  let d = Exact.optimal_decomposition g in
  Alcotest.(check int) "first call misses" (misses0 + 1) (misses ());
  let hits0 = hits () in
  let d' = Exact.optimal_decomposition g in
  Alcotest.(check int) "identical resubmission hits" (hits0 + 1) (hits ());
  Alcotest.(check string) "hit is byte-identical" (marshal d) (marshal d');
  Alcotest.(check bool) "valid" true (Decomposition.is_valid_for d g);
  Alcotest.(check int) "optimal" (Exact.treewidth_dp g)
    (Decomposition.width d);
  let g' = Ops.relabel g (rand_perm (Prng.create 22) 13) in
  Alcotest.(check bool) "copy's bracket closed" true (closed g');
  let misses0 = misses () in
  let d'' = Exact.optimal_decomposition g' in
  Alcotest.(check int) "relabelled copy misses" (misses0 + 1) (misses ());
  Alcotest.(check bool) "copy valid" true (Decomposition.is_valid_for d'' g');
  Alcotest.(check int) "copy optimal" (Decomposition.width d)
    (Decomposition.width d'')

(* ------------------------------------------------------------------ *)
(* Eviction under pressure                                             *)
(* ------------------------------------------------------------------ *)

let blob_store =
  Cache.store ~name:"test.blob"
    ~words:(fun s -> 2 + (String.length s / 8))
    ()

let test_eviction_soundness () =
  reset_tier ();
  (* room for only a handful of ~130-word entries *)
  Cache.set_capacity_words 1_000;
  let evict0 = counter_value "cache.eviction" in
  let keyed i = (Printf.sprintf "blob-%04d" i, String.make 1024 'x') in
  for i = 0 to 63 do
    let k, v = keyed i in
    Cache.add blob_store k v
  done;
  let st = Cache.stats () in
  Alcotest.(check bool) "evictions happened" true
    (counter_value "cache.eviction" > evict0);
  Alcotest.(check bool) "within capacity" true (st.Cache.words <= 1_000);
  Alcotest.(check bool) "some entries survive" true (st.Cache.entries > 0);
  (* LRU: the most recent entry survives, the oldest is gone *)
  let k_new, v_new = keyed 63 in
  let k_old, _ = keyed 0 in
  Alcotest.(check (option string)) "MRU entry present" (Some v_new)
    (Cache.find blob_store k_new);
  Alcotest.(check (option string)) "LRU entry evicted" None
    (Cache.find blob_store k_old);
  Cache.set_capacity_mb 256

let test_accounting_balances () =
  reset_tier ();
  let bytes0 = counter_value "cache.bytes" in
  for i = 0 to 15 do
    Cache.add blob_store (Printf.sprintf "bal-%d" i) (String.make 256 'y')
  done;
  let st = Cache.stats () in
  Alcotest.(check bool) "bytes gauge grew" true
    (counter_value "cache.bytes" > bytes0);
  Alcotest.(check bool) "stats words positive" true (st.Cache.words > 0);
  Cache.clear ();
  let st = Cache.stats () in
  Alcotest.(check int) "clear empties entries" 0 st.Cache.entries;
  Alcotest.(check int) "clear empties words" 0 st.Cache.words;
  (* every add was balanced by a drop: the signed byte gauge returns to
     its pre-test value *)
  Alcotest.(check int) "bytes gauge balances" bytes0
    (counter_value "cache.bytes")

let test_oversized_entry_rejected () =
  reset_tier ();
  Cache.set_capacity_words 100;
  Cache.add blob_store "oversize" (String.make 8192 'z');
  Alcotest.(check (option string)) "an entry larger than the tier is dropped"
    None
    (Cache.find blob_store "oversize");
  Cache.set_capacity_mb 256

let test_disabled_tier_is_inert () =
  reset_tier ();
  Cache.set_capacity_mb 0;
  Alcotest.(check bool) "disabled" false (Cache.enabled ());
  Cache.add blob_store "inert" "v";
  Alcotest.(check (option string)) "no store when disabled" None
    (Cache.find blob_store "inert");
  Cache.set_capacity_mb 256

(* ------------------------------------------------------------------ *)
(* Budgeted runs and the tier                                          *)
(* ------------------------------------------------------------------ *)

module Budget = Wlcq_robust.Budget

(* A budgeted run may read the tier (a memoised total is exact
   whatever budget produced it): warm the cache with an unlimited run,
   then a deadline-bound rerun must hit and agree to the byte. *)
let test_budgeted_run_reads_warm_cache () =
  reset_tier ();
  let h = Builders.cycle 5 in
  let g = Gen.gnp (Prng.create 11) 30 0.25 in
  let warm = Td_count.count h g in
  let hits0 = counter_value "td_count.cache_hits" in
  let budget = Budget.create ~deadline_ms:60_000.0 () in
  (match Td_count.count_budgeted ~budget h g with
   | `Exact v ->
     Alcotest.(check string) "budgeted warm total agrees"
       (Bigint.to_string warm) (Bigint.to_string v)
   | `Degraded _ | `Exhausted _ ->
     Alcotest.fail "generously budgeted warm rerun was not exact");
  Alcotest.(check bool) "budgeted rerun hit the tier" true
    (counter_value "td_count.cache_hits" > hits0);
  (* and cold-vs-warm under the same budget still agrees *)
  Cache.set_capacity_mb 0;
  let budget' = Budget.create ~deadline_ms:60_000.0 () in
  (match Td_count.count_budgeted ~budget:budget' h g with
   | `Exact v ->
     Alcotest.(check string) "budgeted cold total agrees"
       (Bigint.to_string warm) (Bigint.to_string v)
   | `Degraded _ | `Exhausted _ ->
     Alcotest.fail "generously budgeted cold rerun was not exact");
  Cache.set_capacity_mb 256

(* The write gate stays exact-only: a degraded decomposition (forced
   here by an already-cancelled budget) must never enter the tier, so
   the next unlimited run misses and recomputes. *)
let test_degraded_never_written () =
  reset_tier ();
  (* big enough that branch-and-bound crosses a poll point: the
     cancelled token must trip it into the heuristic-order fallback *)
  let g = Gen.gnp (Prng.create 12) 26 0.3 in
  let tk = Budget.token () in
  Budget.cancel tk;
  let budget = Budget.create ~cancel:tk () in
  (match Exact.optimal_decomposition_budgeted ~budget g with
   | `Degraded (d, _) ->
     Alcotest.(check bool) "degraded decomposition still valid" true
       (Decomposition.is_valid_for d g)
   | `Exact _ -> Alcotest.fail "cancelled budget produced an exact run"
   | `Exhausted _ -> Alcotest.fail "treewidth_budgeted never exhausts");
  let misses0 = counter_value "tw.decomp_memo_misses" in
  ignore (Exact.optimal_decomposition g : Decomposition.t);
  Alcotest.(check bool) "unlimited rerun misses (nothing was written)" true
    (counter_value "tw.decomp_memo_misses" > misses0)

(* ------------------------------------------------------------------ *)
(* Warm-start snapshots                                                *)
(* ------------------------------------------------------------------ *)

let test_save_load_roundtrip () =
  reset_tier ();
  let g = open_gnp (Prng.create 33) 13 0.35 in
  let d = Exact.optimal_decomposition g in
  let path = Filename.temp_file "wlcq_cache" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Cache.save_file path with
   | Ok n -> Alcotest.(check bool) "saved >= 1 entries" true (n >= 1)
   | Error e -> Alcotest.failf "save_file: %s" e);
  Cache.clear ();
  (match Cache.load_file path with
   | Ok n -> Alcotest.(check bool) "loaded >= 1 entries" true (n >= 1)
   | Error e -> Alcotest.failf "load_file: %s" e);
  let hits0 = counter_value "cache.hit" in
  let d' = Exact.optimal_decomposition g in
  Alcotest.(check bool) "reload hits" true (counter_value "cache.hit" > hits0);
  Alcotest.(check string) "reloaded artifact byte-identical" (marshal d)
    (marshal d')

let test_load_rejects_garbage () =
  reset_tier ();
  let path = Filename.temp_file "wlcq_cache" ".bad" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "definitely not a cache snapshot";
  close_out oc;
  (match Cache.load_file path with
   | Ok _ -> Alcotest.fail "garbage accepted"
   | Error _ -> ());
  match Cache.load_file (path ^ ".does-not-exist") with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wlcq_cache"
    [
      ( "canonical forms",
        QCheck_alcotest.to_alcotest qcheck_canonical_invariance
        :: QCheck_alcotest.to_alcotest qcheck_address_invariance
        :: QCheck_alcotest.to_alcotest qcheck_query_normal_form
        :: [ Alcotest.test_case "distinct graphs get distinct addresses"
               `Quick test_addresses_separate;
             Alcotest.test_case "colour values are part of the digest"
               `Quick test_colour_values_keyed;
             Alcotest.test_case "labelling polls its budget" `Quick
               test_labelling_budget ] );
      ( "differentials",
        [
          Alcotest.test_case "Td_count totals: cold = warm" `Quick
            test_differential_count;
          Alcotest.test_case "decompositions: cold = warm" `Quick
            test_differential_decomposition;
          Alcotest.test_case "k-WL verdicts: cold = warm" `Quick
            test_differential_kwl_verdicts;
          Alcotest.test_case "permuted resubmission hits" `Quick
            test_permuted_resubmission_hits;
          QCheck_alcotest.to_alcotest qcheck_permuted_hit;
          Alcotest.test_case "closed brackets key on labels" `Quick
            test_closed_bracket_keys_as_labelled;
          Alcotest.test_case "budgeted runs read a warm tier" `Quick
            test_budgeted_run_reads_warm_cache;
          Alcotest.test_case "degraded results are never written" `Quick
            test_degraded_never_written;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "eviction under pressure is sound" `Quick
            test_eviction_soundness;
          Alcotest.test_case "size accounting balances" `Quick
            test_accounting_balances;
          Alcotest.test_case "oversized entries are rejected" `Quick
            test_oversized_entry_rejected;
          Alcotest.test_case "a disabled tier is inert" `Quick
            test_disabled_tier_is_inert;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "corrupt snapshots are clean errors" `Quick
            test_load_rejects_garbage;
        ] );
    ]
