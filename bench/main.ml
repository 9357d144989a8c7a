(* Experiment harness for the reproduction of "The Weisfeiler-Leman
   Dimension of Conjunctive Queries" (PODS 2024).

   The paper is a theory paper with no empirical section; its
   "tables and figures" are theorems, worked examples, and
   constructions.  Each experiment below certifies one of them on
   concrete instances (ids T1-T14 match DESIGN.md / EXPERIMENTS.md),
   and the Bechamel timing series F1-F3 and ablations A1/A2 measure
   the algorithmic engines.

   Usage:
     dune exec bench/main.exe             # all tables + timing series
     dune exec bench/main.exe -- T1 T6    # selected experiments
     dune exec bench/main.exe -- tables   # T1-T14 only
     dune exec bench/main.exe -- timing   # F1-F3 and A1/A2 only
     dune exec bench/main.exe -- timing-smoke
                                          # one tiny instance per series,
                                            non-zero exit on failure (CI) *)

open Wlcq_core
module G = Wlcq_graph
module TW = Wlcq_treewidth
module Cfi = Wlcq_cfi.Cfi
module Bigint = Wlcq_util.Bigint
module Rat = Wlcq_util.Rat
module Prng = Wlcq_util.Prng
module Obs = Wlcq_obs.Obs
module Snapshot = Wlcq_obs.Snapshot
module Budget = Wlcq_robust.Budget
module Dispatch = Wlcq_dispatch.Dispatch
module Cache = Wlcq_cache.Cache
module Steer = Wlcq_oracle.Steer
module Enum_ref = Wlcq_oracle.Enum_ref

let parse s = (Parser.parse_exn s).Parser.query

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let verdict ok = if ok then "ok" else "FAIL"

(* lint: domain-local the harness records failures only from the main domain *)
let failures = ref 0

let record ok = if not ok then incr failures

(* Rows destined for BENCH_PR4.json: (series, instance, t_old_s, t_new_s),
   appended by [speedup_row] when a [?series] tag is given and written
   out by the F1b experiment. *)
(* lint: domain-local rows are appended only by the main domain's harness *)
let pr4_rows : (string * string * float * float) list ref = ref []

(* monotonic wall clock (the Bechamel series uses the same source);
   instrumentation is switched off around the measured closure so the
   enforced speedup bounds see the disabled-path overhead only *)
let wall_time f =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  (* a clean major heap isolates the measurement from garbage left by
     whatever ran before it *)
  Gc.full_major ();
  let r, ns = Obs.time_ns f in
  Obs.set_enabled was;
  (r, Int64.to_float ns /. 1e9)

(* Best-of-3 wall clock: GC pauses and scheduler noise only ever add
   time, so the minimum is the robust estimator for short runs. *)
let wall_time_best f =
  let r, t0 = wall_time f in
  let t = ref t0 in
  for _ = 2 to 3 do
    let _, ti = wall_time f in
    if ti < !t then t := ti
  done;
  (r, !t)

let speedup_row ?(min_speedup = 0.0) ?series name k run_old run_new agree =
  let old_r, told = wall_time_best run_old in
  let new_r, tnew = wall_time_best run_new in
  let speedup = told /. Float.max tnew 1e-9 in
  let ok = agree old_r new_r && speedup >= min_speedup in
  record ok;
  (match series with
   | Some s -> pr4_rows := (s, name, told, tnew) :: !pr4_rows
   | None -> ());
  Printf.printf "%-22s %-3d %9.1f ms %9.1f ms %8.1fx %-7s\n" name k
    (told *. 1e3) (tnew *. 1e3) speedup (verdict ok)

(* ------------------------------------------------------------------ *)
(* T1: star queries — treewidth 1, sew = k (Section 1.1, Cor. 61/67)   *)
(* ------------------------------------------------------------------ *)

let t1 () =
  header "T1" "k-star queries: tw = 1 but sew = WL-dimension = k";
  Printf.printf "%-3s %-8s %-6s %-6s %-14s %-9s %-7s %-7s\n" "k" "tw(S_k)"
    "ew" "sew" "Gamma=K_{k+1}" "minimal" "WL-dim" "verdict";
  for k = 1 to 8 do
    let q = Star.query k in
    let tw = TW.Exact.treewidth q.Cq.graph in
    let ew = Extension.extension_width q in
    let sew = Extension.semantic_extension_width q in
    let clique = Star.gamma_is_clique k in
    let minimal = Minimize.is_counting_minimal q in
    let dim = Wl_dimension.dimension q in
    let ok = tw = 1 && ew = k && sew = k && clique && minimal && dim = k in
    record ok;
    Printf.printf "%-3d %-8d %-6d %-6d %-14b %-9b %-7d %-7s\n" k tw ew sew
      clique minimal dim (verdict ok)
  done

(* ------------------------------------------------------------------ *)
(* T2: tw(F_ℓ) saturates at ew (Lemmas 16/17, Corollary 18)            *)
(* ------------------------------------------------------------------ *)

let t2_queries =
  [
    ("edge", "(x1, x2) := E(x1, x2)");
    ("path2", "(x1, x2) := exists y . E(x1, y) & E(y, x2)");
    ("star2", "(x1, x2) := exists y . E(x1, y) & E(x2, y)");
    ("star3", "(x1, x2, x3) := exists y . E(x1,y) & E(x2,y) & E(x3,y)");
    ("star4",
     "(x1, x2, x3, x4) := exists y . E(x1,y) & E(x2,y) & E(x3,y) & E(x4,y)");
    ("two-comp",
     "(x1, x2, x3) := exists y1 y2 . E(x1, y1) & E(x2, y1) & E(x2, y2) & \
      E(x3, y2)");
    ("quant-path",
     "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)");
  ]

let t2 () =
  header "T2" "tw(F_ell) <= ew with equality for large ell (Corollary 18)";
  Printf.printf "%-11s %-4s | %s | %-7s\n" "query" "ew"
    "tw(F_1) tw(F_2) tw(F_3) tw(F_4) tw(F_5) tw(F_6)" "verdict";
  List.iter
    (fun (name, s) ->
       let q = parse s in
       let ew = Extension.extension_width q in
       let tws =
         List.init 6 (fun i ->
             TW.Exact.treewidth (Extension.f_ell q (i + 1)).Extension.graph)
       in
       let bounded = List.for_all (fun t -> t <= ew) tws in
       let saturates = List.exists (fun t -> t = ew) tws in
       let monotone =
         let rec mono = function
           | a :: (b :: _ as rest) -> a <= b && mono rest
           | _ -> true
         in
         mono tws
       in
       let ok = bounded && saturates && monotone in
       record ok;
       Printf.printf "%-11s %-4d | %s | %-7s\n" name ew
         (String.concat " " (List.map (Printf.sprintf "%7d") tws))
         (verdict ok))
    t2_queries

(* ------------------------------------------------------------------ *)
(* T3: interpolation recovers |Ans| from hom counts (Lemma 22/Obs 23)  *)
(* ------------------------------------------------------------------ *)

let t3 () =
  header "T3" "answer counts via Vandermonde interpolation (Observation 23)";
  Printf.printf "%-11s %-14s %-8s %-14s %-7s\n" "query" "graph" "direct"
    "interpolated" "verdict";
  let rng = Prng.create 2024 in
  let graphs =
    [ ("C5", G.Builders.cycle 5); ("K4", G.Builders.clique 4);
      ("gnp(5,.5)", G.Gen.gnp rng 5 0.5); ("gnp(6,.4)", G.Gen.gnp rng 6 0.4) ]
  in
  List.iter
    (fun (qname, s) ->
       let q = parse s in
       List.iter
         (fun (gname, g) ->
            let direct = Cq.count_answers q g in
            let interp = Wl_dimension.answers_via_interpolation q g in
            let ok = Bigint.equal interp (Bigint.of_int direct) in
            record ok;
            Printf.printf "%-11s %-14s %-8d %-14s %-7s\n" qname gname direct
              (Bigint.to_string interp) (verdict ok))
         graphs)
    [ ("edge", "(x1, x2) := E(x1, x2)");
      ("pendant", "(x) := exists y . E(x, y)");
      ("star2", "(x1, x2) := exists y . E(x1, y) & E(x2, y)");
      ("quant-path",
       "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)") ]

(* ------------------------------------------------------------------ *)
(* T4: CFI parity classes (Lemma 26)                                   *)
(* ------------------------------------------------------------------ *)

let t4 () =
  header "T4" "CFI parity: chi(F,W) ~ chi(F,W') iff |W| = |W'| mod 2";
  Printf.printf "%-10s %-8s %-10s %-12s %-12s %-7s\n" "base" "tw" "|chi|"
    "odd~odd" "even~odd" "verdict";
  let bases =
    [ ("C4", G.Builders.cycle 4); ("C5", G.Builders.cycle 5);
      ("K4", G.Builders.clique 4); ("grid2x3", G.Builders.grid 2 3);
      ("random", G.Gen.random_connected (Prng.create 5) 5 0.3) ]
  in
  List.iter
    (fun (name, base) ->
       let n = G.Graph.num_vertices base in
       let even = Cfi.even base in
       let same = Wlcq_cfi.Pairs.same_parity_isomorphic base 0 (n - 1) in
       let diff = Wlcq_cfi.Pairs.parity_classes_differ base in
       let ok = same && diff in
       record ok;
       Printf.printf "%-10s %-8d %-10d %-12b %-12b %-7s\n" name
         (TW.Exact.treewidth base) (Cfi.num_vertices even) same (not diff)
         (verdict ok))
    bases

(* ------------------------------------------------------------------ *)
(* T5: twisted CFI pairs are (t-1)-WL-equivalent (Lemmas 27/35)        *)
(* ------------------------------------------------------------------ *)

let t5 () =
  header "T5" "chi(F,0)/chi(F,{w}) equivalence below tw(F), separation at tw(F)";
  Printf.printf "%-10s %-4s %-16s %-16s %-7s\n" "base" "tw"
    "equiv at t-1" "separated at t" "verdict";
  let bases =
    [ ("C4", G.Builders.cycle 4, 2); ("C5", G.Builders.cycle 5, 2);
      ("C6", G.Builders.cycle 6, 2); ("K4", G.Builders.clique 4, 3) ]
  in
  List.iter
    (fun (name, base, t) ->
       let even, odd = Wlcq_cfi.Pairs.twisted_pair base in
       let ge = even.Cfi.graph and go = odd.Cfi.graph in
       let equiv = Wlcq_wl.Equivalence.equivalent (t - 1) ge go in
       let separated = not (Wlcq_wl.Equivalence.equivalent t ge go) in
       let ok = equiv && separated in
       record ok;
       Printf.printf "%-10s %-4d %-16b %-16b %-7s\n" name t equiv separated
         (verdict ok);
       (* Lemma 35: cloning preserves the equivalence *)
       let clone (chi : Cfi.t) =
         (Wlcq_cfi.Cloning.clone ~g:chi.Cfi.graph ~f:base
            ~c:chi.Cfi.projection [ (0, 2) ]).Wlcq_cfi.Cloning.graph
       in
       let equiv_cloned =
         Wlcq_wl.Equivalence.equivalent (t - 1) (clone even) (clone odd)
       in
       record equiv_cloned;
       Printf.printf "%-10s %-4s %-16b %-16s %-7s\n" (name ^ "+clone") ""
         equiv_cloned "(Lemma 35)" (verdict equiv_cloned))
    bases

(* ------------------------------------------------------------------ *)
(* T6: the Theorem 24 lower-bound pipeline                             *)
(* ------------------------------------------------------------------ *)

let t6_queries =
  [
    ("star2", "(x1, x2) := exists y . E(x1, y) & E(x2, y)", 2);
    ("star3", "(x1, x2, x3) := exists y . E(x1,y) & E(x2,y) & E(x3,y)", 3);
    ("quant-path",
     "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)", 2);
    ("pendant-triangle",
     "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)", 2);
  ]

let t6 () =
  header "T6" "lower-bound witnesses: Ans^id gap + (k-1)-WL-equivalence";
  Printf.printf "%-17s %-4s %-5s %-7s %-9s %-9s %-10s %-10s %-7s\n" "query"
    "sew" "ell" "|chi|" "Ans^id_e" "Ans^id_o" "E=cpAns" "equiv k-1" "verdict";
  List.iter
    (fun (name, s, k) ->
       let q = parse s in
       let w = Wl_dimension.lower_bound_witness q in
       let e, o = Wl_dimension.ans_id_counts w in
       let se = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.even in
       let so = Extendable.make w.Wl_dimension.core w.Wl_dimension.f
           w.Wl_dimension.odd in
       let lemma55 =
         Extendable.count se = Extendable.count_cp_answers se
         && Extendable.count so = Extendable.count_cp_answers so
       in
       let equiv = Wl_dimension.witness_pair_equivalent w (k - 1) in
       let ok = e > o && lemma55 && equiv && Wl_dimension.dimension q = k in
       record ok;
       Printf.printf "%-17s %-4d %-5d %-7d %-9d %-9d %-10b %-10b %-7s\n" name
         k w.Wl_dimension.f.Extension.ell
         (Cfi.num_vertices w.Wl_dimension.even)
         e o lemma55 equiv (verdict ok))
    t6_queries;
  (* Lemma 40: upgrade to plain answer counts via cloning *)
  Printf.printf "\nseparating pairs (plain |Ans| differs, pair (k-1)-WL-equivalent):\n";
  Printf.printf "%-17s %-8s %-8s %-10s %-7s\n" "query" "|Ans|_e" "|Ans|_o"
    "equiv k-1" "verdict";
  List.iter
    (fun (name, s, k) ->
       let q = parse s in
       match Wl_dimension.separating_pair ~max_z:2 q with
       | None ->
         record false;
         Printf.printf "%-17s %-8s %-8s %-10s %-7s\n" name "-" "-" "-" "FAIL"
       | Some (g1, g2) ->
         let c1 = Cq.count_answers q g1 and c2 = Cq.count_answers q g2 in
         let equiv =
           if k <= 3 then Wlcq_wl.Equivalence.equivalent (k - 1) g1 g2
           else true
         in
         let ok = c1 <> c2 && equiv in
         record ok;
         Printf.printf "%-17s %-8d %-8d %-10b %-7s\n" name c1 c2 equiv
           (verdict ok))
    t6_queries

(* ------------------------------------------------------------------ *)
(* T7: Observation 62 — acyclic CQs cannot separate 2K3 from C6        *)
(* ------------------------------------------------------------------ *)

let t7 () =
  header "T7" "acyclic queries on 2K3 vs C6 (Observation 62)";
  let g1 = G.Builders.two_triangles () and g2 = G.Builders.cycle 6 in
  Printf.printf "1-WL-equivalent: %b; isomorphic: %b\n\n"
    (Wlcq_wl.Refinement.equivalent g1 g2)
    (G.Iso.isomorphic g1 g2);
  Printf.printf "%-64s %5s %5s %-7s\n" "query" "2K3" "C6" "verdict";
  let family =
    [ "(x) := exists y . E(x, y)";
      "(x1, x2) := E(x1, x2)";
      "(x1, x2) := exists y . E(x1, y) & E(y, x2)";
      "(x1, x2) := exists y . E(x1, y) & E(x2, y)";
      "(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)";
      "(x1) := exists y1 y2 . E(x1, y1) & E(y1, y2)";
      "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)";
      "(x1, x2, x3) := E(x1, x2) & E(x2, x3)";
      "(x1, x2, x3, x4) := exists y . E(x1,y) & E(x2,y) & E(x3,y) & E(x4,y)" ]
  in
  List.iter
    (fun s ->
       let q = parse s in
       let c1 = Cq.count_answers q g1 and c2 = Cq.count_answers q g2 in
       let ok = c1 = c2 && G.Traversal.is_forest q.Cq.graph in
       record ok;
       Printf.printf "%-64s %5d %5d %-7s\n" s c1 c2 (verdict ok))
    family;
  let triangle =
    parse "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)"
  in
  let c1 = Cq.count_answers triangle g1 and c2 = Cq.count_answers triangle g2 in
  record (c1 <> c2);
  Printf.printf "%-64s %5d %5d %-7s (control: cyclic query separates)\n"
    "triangle control" c1 c2 (verdict (c1 <> c2))

(* ------------------------------------------------------------------ *)
(* T8: dominating sets (Corollaries 6/68)                              *)
(* ------------------------------------------------------------------ *)

let t8 () =
  header "T8" "dominating sets: three counting routes + WL-dimension = k";
  Printf.printf "%-10s %-3s %-10s %-10s %-10s %-7s\n" "graph" "k" "direct"
    "stars" "quantum" "verdict";
  let graphs =
    [ ("C5", G.Builders.cycle 5); ("C6", G.Builders.cycle 6);
      ("Petersen", G.Builders.petersen ()); ("K4", G.Builders.clique 4);
      ("grid3x3", G.Builders.grid 3 3) ]
  in
  List.iter
    (fun (name, g) ->
       List.iter
         (fun k ->
            let a = Domset.count_direct k g in
            let b = Enum_ref.count_domsets_via_stars k g in
            let c = Domset.count_via_quantum k g in
            let ok = Bigint.equal a b && Bigint.equal a c in
            record ok;
            Printf.printf "%-10s %-3d %-10s %-10s %-10s %-7s\n" name k
              (Bigint.to_string a) (Bigint.to_string b) (Bigint.to_string c)
              (verdict ok))
         [ 1; 2; 3 ])
    graphs;
  (* dimension certificate for k = 2:
     lower bound — the 1-WL-equivalent pair (2K3, C6) has different
     2-dominating-set counts;
     upper bound — a 2-WL-equivalent pair (the chi(K4) twist) agrees. *)
  Printf.printf "\nWL-dimension certificate for |Delta_2|:\n";
  let g1 = G.Builders.two_triangles () and g2 = G.Builders.cycle 6 in
  let d1 = Domset.count_direct 2 g1 and d2 = Domset.count_direct 2 g2 in
  let lower = not (Bigint.equal d1 d2) in
  record lower;
  Printf.printf
    "  1-WL-equivalent pair (2K3, C6): |Delta_2| = %s vs %s  -> dimension > 1 %s\n"
    (Bigint.to_string d1) (Bigint.to_string d2) (verdict lower);
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.clique 4) in
  let e1 = Domset.count_direct 2 even.Cfi.graph in
  let e2 = Domset.count_direct 2 odd.Cfi.graph in
  let upper = Bigint.equal e1 e2 in
  record upper;
  Printf.printf
    "  2-WL-equivalent pair chi(K4): |Delta_2| = %s vs %s -> consistent with \
     dimension = 2 %s\n"
    (Bigint.to_string e1) (Bigint.to_string e2) (verdict upper);
  (* and for k = 3, on the classic strongly-regular pair: Shrikhande
     and the 4x4 rook's graph are 2-WL-equivalent, and 3-dominating-set
     counts tell them apart *)
  Printf.printf "\nWL-dimension certificate for |Delta_3| (SRG pair):\n";
  let r = G.Builders.rook () and s = G.Builders.shrikhande () in
  let equiv2 = Wlcq_wl.Equivalence.equivalent 2 r s in
  let dr = Domset.count_direct 3 r and ds = Domset.count_direct 3 s in
  let sep = not (Bigint.equal dr ds) in
  let star_agrees =
    Cq.count_answers (Star.query 2) r = Cq.count_answers (Star.query 2) s
  in
  let ok = equiv2 && sep && star_agrees in
  record ok;
  Printf.printf
    "  Shrikhande vs rook: 2-WL-equivalent %b; |Delta_3| = %s vs %s; \
     dim-2 star query agrees %b -> dimension of |Delta_3| > 2 %s\n"
    equiv2 (Bigint.to_string dr) (Bigint.to_string ds) star_agrees
    (verdict ok)

(* ------------------------------------------------------------------ *)
(* T9: quantum queries and UCQs (Definition 63, Corollary 5)           *)
(* ------------------------------------------------------------------ *)

let t9 () =
  header "T9" "quantum queries: UCQ expansions, hsew, Corollary 5";
  let edge = parse "(x1, x2) := E(x1, x2)" in
  let path2 = parse "(x1, x2) := exists y . E(x1, y) & E(y, x2)" in
  let star2 = parse "(x1, x2) := exists y . E(x1, y) & E(x2, y)" in
  let unions =
    [ ("edge|path2", [ edge; path2 ]); ("edge|star2", [ edge; star2 ]);
      ("path2|star2", [ path2; star2 ]);
      ("edge|path2|star2", [ edge; path2; star2 ]) ]
  in
  Printf.printf "%-18s %-7s %-10s %-10s %-6s %-7s\n" "union" "graph" "direct"
    "quantum" "hsew" "verdict";
  let graphs =
    [ ("C6", G.Builders.cycle 6); ("K4", G.Builders.clique 4);
      ("Pet.", G.Builders.petersen ()) ]
  in
  List.iter
    (fun (name, qs) ->
       let quantum = Quantum.of_union qs in
       let hsew = Quantum.hsew quantum in
       List.iter
         (fun (gname, g) ->
            let direct = Enum_ref.count_union_answers qs g in
            let value = Quantum.evaluate quantum g in
            let ok = Rat.equal value (Rat.of_int direct) in
            record ok;
            Printf.printf "%-18s %-7s %-10d %-10s %-6d %-7s\n" name gname
              direct (Rat.to_string value) hsew (verdict ok))
         graphs)
    unions;
  (* Corollary 5 witness: a quantum query with hsew = 2 distinguishes a
     1-WL-equivalent pair *)
  Printf.printf "\nCorollary 5 witness (hsew = 2 distinguishes a 1-WL pair):\n";
  let quantum = Quantum.of_union [ edge; star2 ] in
  match Wl_dimension.separating_pair ~max_z:2 star2 with
  | None -> record false; Printf.printf "  no pair found FAIL\n"
  | Some (g1, g2) ->
    let v1 = Quantum.evaluate quantum g1 and v2 = Quantum.evaluate quantum g2 in
    let equiv = Wlcq_wl.Equivalence.equivalent 1 g1 g2 in
    let ok = (not (Rat.equal v1 v2)) && equiv in
    record ok;
    Printf.printf
      "  1-WL-equivalent pair: evaluate = %s vs %s, distinguished: %b %s\n"
      (Rat.to_string v1) (Rat.to_string v2)
      (not (Rat.equal v1 v2))
      (verdict ok)

(* ------------------------------------------------------------------ *)
(* T10: knowledge graphs (Section 1.3 item C)                          *)
(* ------------------------------------------------------------------ *)

let t10 () =
  header "T10" "knowledge-graph extension: encoding compatibility + labels";
  let open Wlcq_kg in
  let enc g = Kgraph.of_graph g ~vertex_label:0 ~edge_label:0 in
  (* compatibility: plain results survive the encoding *)
  Printf.printf "%-8s %-14s %-10s %-10s %-7s\n" "query" "graph" "plain"
    "kg-encoded" "verdict";
  List.iter
    (fun k ->
       let q = Star.query k in
       let kq = Kcq.of_cq q in
       List.iter
         (fun (name, g) ->
            let plain = Cq.count_answers q g in
            let kg = Kcq.count_answers kq (enc g) in
            let ok = plain = kg in
            record ok;
            Printf.printf "%-8s %-14s %-10d %-10d %-7s\n"
              (Printf.sprintf "star%d" k) name plain kg (verdict ok))
         [ ("C5", G.Builders.cycle 5); ("Petersen", G.Builders.petersen ()) ])
    [ 1; 2 ];
  (* widths agree under encoding *)
  Printf.printf "\n%-8s %-8s %-8s %-7s\n" "query" "sew" "kg-sew" "verdict";
  List.iter
    (fun k ->
       let q = Star.query k in
       let a = Extension.semantic_extension_width q in
       let b = Kcq.semantic_extension_width (Kcq.of_cq q) in
       let ok = a = b in
       record ok;
       Printf.printf "%-8s %-8d %-8d %-7s\n" (Printf.sprintf "star%d" k) a b
         (verdict ok))
    [ 1; 2; 3 ];
  (* genuinely labelled phenomena *)
  Printf.printf "\nlabelled/directed phenomena:\n";
  let directed =
    (Kparser.parse_exn "(x) := exists y1 y2 . r(x, y1) & r(y1, y2)")
      .Kparser.query
  in
  let undirected =
    Kcq.of_cq
      (parse "(x) := exists y1 y2 . E(x, y1) & E(y1, y2)")
  in
  let ok1 = Kcq.is_counting_minimal directed in
  let ok2 = not (Kcq.is_counting_minimal undirected) in
  record ok1;
  record ok2;
  Printf.printf "  directed 2-tail minimal: %b %s / undirected folds: %b %s\n"
    ok1 (verdict ok1) ok2 (verdict ok2);
  let cyc =
    Kgraph.create ~n:3 ~vertex_labels:[| 0; 0; 0 |]
      ~edges:[ (0, 1, 0); (1, 2, 0); (2, 0, 0) ]
  in
  let acy =
    Kgraph.create ~n:3 ~vertex_labels:[| 0; 0; 0 |]
      ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ]
  in
  let ok3 = not (Kwl.equivalent 1 cyc acy) in
  record ok3;
  Printf.printf "  kg-1-WL separates orientations of the triangle: %b %s\n"
    ok3 (verdict ok3)

(* ------------------------------------------------------------------ *)
(* T11: GNN expressiveness (Section 1.2)                               *)
(* ------------------------------------------------------------------ *)

let t11 () =
  header "T11" "order-k GNNs count answers iff k >= sew (Prop. 3 + Thm 1)";
  Printf.printf "%-8s %-5s %-26s %-26s %-7s\n" "query" "sew"
    "order sew readout correct" "order sew-1 witness fails" "verdict";
  List.iter
    (fun (name, s) ->
       let q = parse s in
       let k = Wlcq_gnn.Gnn.sufficient_order q in
       let g = G.Builders.cycle 5 in
       let upper =
         match Wlcq_gnn.Gnn.answer_count_readout q (Wlcq_gnn.Gnn.make ~order:k g) with
         | Some v -> Bigint.equal v (Bigint.of_int (Cq.count_answers q g))
         | None -> false
       in
       let lower =
         if k = 1 then true (* no lower order exists *)
         else
           match Wlcq_gnn.Gnn.inexpressibility_witness q with
           | None -> false
           | Some (g1, g2) ->
             Wlcq_gnn.Gnn.indistinguishable ~order:(k - 1) g1 g2
             && Cq.count_answers q g1 <> Cq.count_answers q g2
       in
       let ok = upper && lower in
       record ok;
       Printf.printf "%-8s %-5d %-26b %-26b %-7s\n" name k upper lower
         (verdict ok))
    [ ("edge", "(x1, x2) := E(x1, x2)");
      ("star2", "(x1, x2) := exists y . E(x1, y) & E(x2, y)");
      ("star3", "(x1, x2, x3) := exists y . E(x1,y) & E(x2,y) & E(x3,y)") ]

(* ------------------------------------------------------------------ *)
(* T12: WL-dimension of the adjacency spectrum                         *)
(* ------------------------------------------------------------------ *)

let t12 () =
  header "T12"
    "the characteristic polynomial is a dimension-2 parameter";
  (* lower bound: a 1-WL-equivalent, non-cospectral pair *)
  let g1 = G.Builders.two_triangles () and g2 = G.Builders.cycle 6 in
  let lower =
    Wlcq_wl.Equivalence.equivalent 1 g1 g2
    && not (G.Spectral.cospectral g1 g2)
  in
  record lower;
  Printf.printf
    "  lower: 2K3 ~1 C6 but spectra differ -> dimension > 1        %s\n"
    (verdict lower);
  (* upper evidence: 2-WL-equivalent pairs are cospectral (closed
     walks are hom counts from cycles, treewidth 2) *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.clique 4) in
  let pairs =
    [ ("chi(K4)", even.Cfi.graph, odd.Cfi.graph);
      ("shrikhande/rook", G.Builders.shrikhande (), G.Builders.rook ()) ]
  in
  List.iter
    (fun (name, a, b) ->
       let ok = G.Spectral.cospectral a b in
       record ok;
       Printf.printf
         "  upper: 2-WL-equivalent pair %-16s cospectral: %b  %s\n" name ok
         (verdict ok))
    pairs

(* ------------------------------------------------------------------ *)
(* T13: WL-dimension survey of standard graph parameters               *)
(* ------------------------------------------------------------------ *)

let t13 () =
  header "T13" "experimental WL-dimension lower bounds for graph parameters";
  Printf.printf "%-16s %-22s %-7s\n" "parameter" "dimension lower bound"
    "via pair";
  List.iter
    (fun p ->
       match Invariant.dimension_lower_bound p with
       | None ->
         Printf.printf "%-16s %-22s %-7s\n" p.Invariant.name
           ">= 1 (no separation)" "-"
       | Some (k, pair) ->
         Printf.printf "%-16s %-22s %-7s\n" p.Invariant.name
           (Printf.sprintf ">= %d" k) pair)
    (Invariant.standard_library ());
  (* hard expectations from the theory *)
  let expect name k =
    let p =
      match
        List.find_opt
          (fun p -> String.equal p.Invariant.name name)
          (Invariant.standard_library ())
      with
      | Some p -> p
      | None -> failwith ("Main.expect: unknown invariant " ^ name)
    in
    let ok = Option.is_none (Invariant.dimension_lower_bound p) && k = 1
             || (match Invariant.dimension_lower_bound p with
                 | Some (k', _) -> k' = k
                 | None -> false)
    in
    record ok;
    Printf.printf "  %-16s expected lower bound %d: %s\n" name k (verdict ok)
  in
  Printf.printf "\nchecks:\n";
  expect "num-edges" 1;       (* never separates: 1-WL determines it *)
  expect "max-degree" 1;
  expect "triangles" 2;       (* separates a 1-WL pair, no 2-WL pair *)
  expect "charpoly" 2;
  expect "domsets-2" 2;
  expect "domsets-3" 3;       (* separates the 2-WL-equivalent SRG pair *)
  expect "star2-answers" 2

(* ------------------------------------------------------------------ *)
(* T15: Corollary 2 — CQ-indistinguishability characterises k-WL       *)
(* ------------------------------------------------------------------ *)

let t15 () =
  header "T15"
    "Corollary 2: G ~k G' iff all connected CQs with sew <= k agree";
  (* a query library stratified by sew *)
  let library =
    [ ("edge", parse "(x1, x2) := E(x1, x2)", 1);
      ("pendant", parse "(x) := exists y . E(x, y)", 1);
      ("full-P3", Cq.make (G.Builders.path 3) [ 0; 1; 2 ], 1);
      ("star2", Star.query 2, 2);
      ("quant-path2", Gen_query.quantified_path 2, 2);
      ("full-C5", Cq.make (G.Builders.cycle 5) [ 0; 1; 2; 3; 4 ], 2);
      ("full-triangle", Cq.make (G.Builders.cycle 3) [ 0; 1; 2 ], 2) ]
  in
  let pairs = Invariant.witness_pairs () in
  (* forward direction: on a level-k pair, every query with sew <= k
     agrees *)
  Printf.printf "%-16s %-4s %-16s %-9s %-9s %-7s\n" "pair" "k" "query"
    "count1" "count2" "verdict";
  List.iter
    (fun (pname, k, g1, g2) ->
       List.iter
         (fun (qname, q, sew) ->
            if sew <= k then begin
              let c1 = Cq.count_answers q g1 and c2 = Cq.count_answers q g2 in
              let ok = c1 = c2 in
              record ok;
              Printf.printf "%-16s %-4d %-16s %-9d %-9d %-7s\n" pname k qname
                c1 c2 (verdict ok)
            end)
         library)
    pairs;
  (* converse direction: each pair is NOT (k+1)-indistinguishable —
     exhibit a full CQ of treewidth <= k+1 (hence sew <= k+1) with
     different counts, from the smallest distinguishing hom pattern *)
  Printf.printf "\nconverse (a sew <= k+1 query separates each pair):\n";
  List.iter
    (fun (pname, k, g1, g2) ->
       match
         Wlcq_wl.Hom_profile.first_difference ~max_size:4 ~tw_bound:(k + 1)
           g1 g2
       with
       | None ->
         record false;
         Printf.printf "  %-16s no separating pattern found FAIL\n" pname
       | Some (pattern, c1, c2) ->
         let q =
           Cq.make pattern
             (List.init (G.Graph.num_vertices pattern) (fun i -> i))
         in
         let sew = Extension.semantic_extension_width q in
         let ok = sew <= k + 1 && not (Bigint.equal c1 c2) in
         record ok;
         Printf.printf
           "  %-16s separated by a full CQ on %d vars with sew = %d  %s\n"
           pname
           (G.Graph.num_vertices pattern)
           sew (verdict ok))
    pairs

(* ------------------------------------------------------------------ *)
(* T14: batch Theorem 1 certificates                                   *)
(* ------------------------------------------------------------------ *)

let t14 () =
  header "T14" "machine-checked Theorem 1 certificates, batch mode";
  Printf.printf "%-44s %-5s %-12s %-8s %-7s\n" "query" "dim" "Ans^id gap"
    "valid" "verdict";
  let named =
    [ "(x1, x2) := E(x1, x2)";
      "(x1, x2) := exists y . E(x1, y) & E(x2, y)";
      "(x1, x2) := exists y1 y2 . E(x1, y1) & E(y1, y2) & E(y2, x2)";
      "(x1) := exists y1 y2 . E(x1, y1) & E(x1, y2) & E(y1, y2)";
      "(x1, x2, x3) := exists y . E(x1,y) & E(x2,y) & E(x3,y)" ]
  in
  let rng = Prng.create 4242 in
  let random =
    List.init 3 (fun _ ->
        Gen_query.random_connected rng ~num_vars:5 ~num_free:2 ~edge_prob:0.3)
  in
  List.iter
    (fun (label, q) ->
       let c = Certificate.certify q in
       let valid = Certificate.is_valid c in
       let gap =
         match c.Certificate.lower with
         | None -> "- (full)"
         | Some l ->
           Printf.sprintf "%d > %d" l.Certificate.ans_id_even
             l.Certificate.ans_id_odd
       in
       record valid;
       Printf.printf "%-44s %-5d %-12s %-8b %-7s\n" label
         c.Certificate.dimension gap valid (verdict valid))
    (List.map (fun s -> (s, parse s)) named
     @ List.mapi (fun i q -> (Printf.sprintf "random query #%d" (i + 1), q))
       random)

(* ------------------------------------------------------------------ *)
(* Timing series (Bechamel)                                            *)
(* ------------------------------------------------------------------ *)

let run_timing title tests =
  let open Bechamel in
  Printf.printf "\n--- %s ---\n" title;
  (* the Bechamel series time raw engines; with the content-addressed
     tier armed every post-warmup iteration would be a cache probe *)
  let saved = (Cache.stats ()).Cache.capacity_words in
  Cache.set_capacity_words 0;
  Fun.protect ~finally:(fun () -> Cache.set_capacity_words saved) @@ fun () ->
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:title tests) in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (x :: _) -> x
           | _ -> nan
         in
         (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
       if ns < 1000.0 then Printf.printf "%-52s %12.1f ns/run\n" name ns
       else if ns < 1_000_000.0 then
         Printf.printf "%-52s %12.2f us/run\n" name (ns /. 1e3)
       else Printf.printf "%-52s %12.2f ms/run\n" name (ns /. 1e6))
    (List.sort
       (fun (n1, v1) (n2, v2) ->
          let c = String.compare n1 n2 in
          if c <> 0 then c else Float.compare v1 v2)
       rows)

let f1 () =
  header "F1" "hom counting: brute force vs treewidth DP (engine of Obs. 23)";
  let h = G.Builders.path 4 in
  let rng = Prng.create 41 in
  let tests =
    List.concat_map
      (fun n ->
         let g = G.Gen.gnp rng n 0.3 in
         let d = TW.Exact.optimal_decomposition h in
         [ Bechamel.Test.make
             ~name:(Printf.sprintf "brute/P4->gnp%d" n)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Wlcq_hom.Brute.count h g)));
           Bechamel.Test.make
             ~name:(Printf.sprintf "td-dp/P4->gnp%d" n)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Wlcq_hom.Td_count.count_with_decomposition d h g)))
         ])
      [ 10; 20; 40 ]
  in
  run_timing "F1-hom-counting" tests

(* ------------------------------------------------------------------ *)
(* F1b: the packed-key DP against brute counting and answer           *)
(* enumeration, plus the shared-decomposition batch entry point — the  *)
(* PR4 acceptance series.  Machine-readable timings for F1/F1b/F3 land *)
(* in BENCH_PR4.json.                                                  *)
(* ------------------------------------------------------------------ *)

let write_bench_json ~pr file =
  let rows = List.rev !pr4_rows in
  let row (series, name, told, tnew) =
    Printf.sprintf
      "    {\"series\": \"%s\", \"instance\": \"%s\", \"t_old_s\": %.9f, \
       \"t_new_s\": %.9f, \"speedup\": %.3f}"
      series name told tnew
      (told /. Float.max tnew 1e-9)
  in
  let json =
    Printf.sprintf "{\n  \"pr\": %d,\n  \"rows\": [\n%s\n  ]\n}\n" pr
      (String.concat ",\n" (List.map row rows))
  in
  if not (Obs.json_parseable json) then
    failwith "Main.write_bench_json: generated bench JSON does not parse";
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  Printf.printf "\nbench rows written to %s\n" file

let f1b () =
  header "F1b" "packed-key DP vs brute and enumeration + batch API";
  pr4_rows := [];
  Printf.printf "%-22s %-3s %12s %12s %9s %-7s\n" "instance" "n" "old" "new"
    "speedup" "verdict";
  let reps = 40 in
  let repeat f () =
    let r = ref (f ()) in
    for _ = 2 to reps do
      r := f ()
    done;
    !r
  in
  let h = G.Builders.path 4 in
  (* F1 shape, recorded for the JSON table: brute vs the packed DP on
     the same instances as the Bechamel F1 series *)
  let rng = Prng.create 41 in
  List.iter
    (fun n ->
       let g = G.Gen.gnp rng n 0.3 in
       let d = TW.Exact.optimal_decomposition h in
       speedup_row ~series:"F1"
         (Printf.sprintf "brute-vs-dp/gnp%d" n)
         n
         (repeat (fun () -> Bigint.of_int (Wlcq_hom.Brute.count h g)))
         (repeat (fun () -> Wlcq_hom.Td_count.count_with_decomposition d h g))
         Bigint.equal)
    [ 10; 20; 40 ];
  (* F3 shape: answer enumeration vs the Corollary 4 DP (packed) *)
  let gq = G.Builders.grid 3 4 in
  let q3 = Gen_query.quantified_path 2 in
  speedup_row ~series:"F3" "enum-vs-fast/qpath2" 12
    (repeat (fun () -> Bigint.of_int (Cq.count_answers q3 gq)))
    (repeat (fun () -> Fast_count.count_answers q3 gq))
    Bigint.equal;
  (* batch acceptance: count_many on the T3 extension family must beat
     L independent count calls; the cache tier is cleared per
     repetition so both sides pay cold-cache decomposition costs *)
  let core =
    Minimize.counting_core (parse "(x1, x2) := exists y . E(x1, y) & E(x2, y)")
  in
  let gt = G.Gen.gnp (Prng.create 2024) 12 0.3 in
  let ell_max = G.Graph.num_vertices gt in
  let patterns =
    List.init ell_max (fun i -> (Extension.f_ell core (i + 1)).Extension.graph)
  in
  let list_agree a b = List.for_all2 Bigint.equal a b in
  speedup_row ~min_speedup:1.0 ~series:"F1b" "count_many-vs-L-counts" ell_max
    (repeat (fun () ->
         Cache.clear ();
         List.map (fun p -> Wlcq_hom.Td_count.count p gt) patterns))
    (repeat (fun () ->
         Cache.clear ();
         Wlcq_hom.Td_count.count_many patterns gt))
    list_agree;
  write_bench_json ~pr:4 "BENCH_PR4.json"

(* ------------------------------------------------------------------ *)
(* F5: adaptive dispatch — the PR6 acceptance series.  Every row runs  *)
(* the auto engine against the best old engine for that instance and   *)
(* enforces a universal >= 1.0x floor, so small-case speed can no      *)
(* longer be traded for large-case wins silently; the PR4 large-       *)
(* instance win keeps its own floor (>= 12x brute-vs-dp/gnp40).  Rows  *)
(* land in BENCH_PR6.json.                                             *)
(* ------------------------------------------------------------------ *)

let f5 () =
  header "F5" "adaptive dispatch: auto >= 1.0x vs best-of-old on every row";
  pr4_rows := [];
  Printf.printf "%-22s %-3s %12s %12s %9s %-7s\n" "instance" "n" "old" "new"
    "speedup" "verdict";
  let reps = 40 in
  let repeat f () =
    let r = ref (f ()) in
    for _ = 2 to reps do
      r := f ()
    done;
    !r
  in
  let h = G.Builders.path 4 in
  (* brute vs the auto engine on the F1 instance ladder: the gnp10 row
     regressed to 0.977x under the always-packed PR4 engine and must
     come back over 1.0x now that dispatch picks a lean packed run *)
  let rng = Prng.create 41 in
  List.iter
    (fun n ->
       let g = G.Gen.gnp rng n 0.3 in
       let d = TW.Exact.optimal_decomposition h in
       let min_speedup = if n = 40 then 12.0 else 1.0 in
       speedup_row ~min_speedup ~series:"F5"
         (Printf.sprintf "brute-vs-dp/gnp%d" n)
         n
         (repeat (fun () -> Bigint.of_int (Wlcq_hom.Brute.count h g)))
         (repeat (fun () -> Wlcq_hom.Td_count.count_with_decomposition d h g))
         Bigint.equal)
    [ 10; 20; 40 ];
  (* the other regressed row: answer enumeration vs auto, which now
     routes this tiny instance to the projection-row kernel *)
  let gq = G.Builders.grid 3 4 in
  let q3 = Gen_query.quantified_path 2 in
  speedup_row ~min_speedup:1.0 ~series:"F5" "enum-vs-fast/qpath2" 12
    (repeat (fun () -> Bigint.of_int (Cq.count_answers q3 gq)))
    (repeat (fun () -> Fast_count.count_answers q3 gq))
    Bigint.equal;
  (* k-WL: list-bucketed reference vs the probe-table engine *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.cycle 6) in
  let ge = even.Cfi.graph and go = odd.Cfi.graph in
  speedup_row ~min_speedup:1.0 ~series:"F5" "kwlref-vs-packed/cfi-C6" 2
    (repeat (fun () -> Wlcq_wl.Kwl.equivalent_reference 2 ge go))
    (repeat (fun () -> Wlcq_wl.Kwl.equivalent 2 ge go))
    Bool.equal;
  (* batch API keeps its floor under dispatch *)
  let core =
    Minimize.counting_core (parse "(x1, x2) := exists y . E(x1, y) & E(x2, y)")
  in
  let gt = G.Gen.gnp (Prng.create 2024) 12 0.3 in
  let ell_max = G.Graph.num_vertices gt in
  let patterns =
    List.init ell_max (fun i -> (Extension.f_ell core (i + 1)).Extension.graph)
  in
  let list_agree a b = List.for_all2 Bigint.equal a b in
  speedup_row ~min_speedup:1.0 ~series:"F5" "count_many-vs-L-counts" ell_max
    (repeat (fun () ->
         Cache.clear ();
         List.map (fun p -> Wlcq_hom.Td_count.count p gt) patterns))
    (repeat (fun () ->
         Cache.clear ();
         Wlcq_hom.Td_count.count_many patterns gt))
    list_agree;
  write_bench_json ~pr:6 "BENCH_PR6.json"

(* [open_gnp rng n p] draws G(n, p) until the heuristic bracket is
   open (MMD+ lower bound < greedy upper bound): only then does the
   branch and bound search, so only then does A1 time the search and
   is an exact decomposition stored under its canonical address. *)
let rec open_gnp rng n p =
  let g = G.Gen.gnp rng n p in
  if TW.Heuristics.lower_bound g < TW.Heuristics.upper_bound g then g
  else open_gnp rng n p

(* ------------------------------------------------------------------ *)
(* F8: the content-addressed cache tier — the PR9 acceptance series.   *)
(* A Zipf-repeated workload whose every submission is a freshly        *)
(* permuted isomorphic copy is replayed cold (tier disabled) and warm  *)
(* (tier armed): the warm side must recognise the copies through       *)
(* canonical addressing and clear the enforced floors, and an armed    *)
(* zero-repeat workload must stay within 3% of the disabled path (the  *)
(* PR5/PR8 overhead discipline).  Rows land in BENCH_PR9.json.         *)
(* ------------------------------------------------------------------ *)

let f8 () =
  header "F8" "content-addressed cache: repeated workloads warm vs cold";
  pr4_rows := [];
  Printf.printf "%-22s %-3s %12s %12s %9s %-7s\n" "instance" "n" "cold" "warm"
    "speedup" "verdict";
  let rng = Prng.create 97 in
  (* Fisher-Yates: a fresh uniform relabelling per submission *)
  let rand_perm n =
    let p = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    p
  in
  let permuted g = G.Ops.relabel g (rand_perm (G.Graph.num_vertices g)) in
  (* Zipf pick over a pool: P(i) proportional to 1/(i+1) *)
  let zipf_pick pool =
    let k = Array.length pool in
    let total = ref 0.0 in
    for i = 0 to k - 1 do
      total := !total +. (1.0 /. float_of_int (i + 1))
    done;
    let x = ref (Prng.float rng *. !total) in
    let idx = ref (k - 1) in
    (try
       for i = 0 to k - 1 do
         x := !x -. (1.0 /. float_of_int (i + 1));
         if !x <= 0.0 then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    pool.(!idx)
  in
  let cold f () =
    Cache.set_capacity_mb 0;
    f ()
  and warm f () =
    Cache.set_capacity_mb 256;
    f ()
  in
  (* DP-table row: a Zipf-repeated pool of targets under a treewidth-2
     pattern.  The submission list is built once — 24 distinct permuted
     copies — and replayed per estimator rep, so the warm side measures
     steady-state recurrence: every submission is labelled canonically
     (both graphs, each time) and then hits the tier.  Recognition of
     *fresh* relabellings is also pinned by the n=13 decomposition row
     below, the timing-smoke first-pass assertion at n=20, and the
     qcheck differentials in test_cache. *)
  let h5 = G.Builders.cycle 5 in
  let pool = Array.init 3 (fun i -> G.Gen.gnp (Prng.create (100 + i)) 30 0.25) in
  let submissions = List.init 24 (fun _ -> permuted (zipf_pick pool)) in
  let count_all () =
    List.map (fun g -> Wlcq_hom.Td_count.count h5 g) submissions
  in
  let list_agree a b = List.for_all2 Bigint.equal a b in
  speedup_row ~min_speedup:5.0 ~series:"F8" "dp-tables/zipf-gnp30" 30
    (cold count_all) (warm count_all) list_agree;
  (* decomposition row: permuted resubmissions through the exact
     solver; a hit comes back relabelled through the canonicalising
     permutation and must still be a valid decomposition of the
     submitted copy.  The pool graphs take a search: a graph whose
     heuristic bracket closes is keyed as labelled, so its relabelled
     copies would miss. *)
  let dpool = Array.init 2 (fun i -> open_gnp (Prng.create (200 + i)) 13 0.35) in
  let dsubs = List.init 10 (fun _ -> permuted (zipf_pick dpool)) in
  let solve_all () =
    List.map
      (fun g ->
         let d = TW.Exact.optimal_decomposition g in
         assert (TW.Decomposition.is_valid_for d g);
         TW.Decomposition.width d)
      dsubs
  in
  let int_list_agree a b = List.for_all2 Int.equal a b in
  speedup_row ~min_speedup:2.0 ~series:"F8" "decompositions/gnp13" 13
    (cold solve_all) (warm solve_all) int_list_agree;
  (* k-WL verdict row: a CFI pair resubmitted under fresh relabellings;
     the verdict memo keys on the ordered pair of canonical digests, so
     every copy of the pair shares one entry *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.cycle 6) in
  let ge = even.Cfi.graph and go = odd.Cfi.graph in
  let vsubs =
    List.init 4 (fun i ->
        if i = 0 then (ge, go) else (permuted ge, permuted go))
  in
  let verdicts () =
    List.map (fun (a, b) -> Wl_dimension.equivalent_cached 2 a b) vsubs
  in
  let bool_list_agree a b = List.for_all2 Bool.equal a b in
  speedup_row ~min_speedup:2.0 ~series:"F8" "kwl-verdicts/cfi-C6" 2
    (cold verdicts) (warm verdicts) bool_list_agree;
  (* armed-cache overhead: a zero-repeat workload (every instance
     distinct, nothing resubmitted) pays canonicalisation and the
     lookup machinery for nothing.  Paired off/on samples measured
     back to back, 2nd-smallest ratio of 11, 3% ceiling — the PR8
     armed-observability discipline. *)
  let max_armed_ratio = 1.03 in
  let ztw = List.init 3 (fun i -> G.Gen.gnp (Prng.create (300 + i)) 13 0.35) in
  let zdp = List.init 2 (fun i -> G.Gen.gnp (Prng.create (400 + i)) 36 0.25) in
  let zero_repeat () =
    ( List.map
        (fun g -> TW.Decomposition.width (TW.Exact.optimal_decomposition g))
        ztw,
      List.map (fun g -> Wlcq_hom.Td_count.count h5 g) zdp )
  in
  let mix_agree (w1, c1) (w2, c2) =
    List.for_all2 Int.equal w1 w2 && List.for_all2 Bigint.equal c1 c2
  in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  let timed_with ~armed f =
    if armed then begin
      Cache.set_capacity_mb 256;
      (* every armed sample starts from an empty tier and repays
         canonicalisation — honest zero-repeat traffic *)
      Cache.clear ()
    end
    else Cache.set_capacity_mb 0;
    Gc.full_major ();
    let r, ns = Obs.time_ns f in
    (r, Int64.to_float ns /. 1e9)
  in
  let pairs = 11 in
  let samples =
    Array.init pairs (fun _ ->
        let off_r, toff = timed_with ~armed:false zero_repeat in
        let on_r, ton = timed_with ~armed:true zero_repeat in
        (off_r, on_r, toff, ton))
  in
  Obs.set_enabled was;
  Array.sort
    (fun (_, _, o1, n1) (_, _, o2, n2) ->
       Float.compare (n1 /. o1) (n2 /. o2))
    samples;
  let off_r, on_r, toff, ton = samples.(1) in
  let ratio = ton /. Float.max toff 1e-9 in
  let ok = mix_agree off_r on_r && ratio <= max_armed_ratio in
  record ok;
  pr4_rows := ("F8-armed-cache", "zero-repeat-mix", toff, ton) :: !pr4_rows;
  Printf.printf "F8  armed cache %-18s off %8.2f ms on %8.2f ms %6.3fx %-7s\n"
    "zero-repeat-mix" (toff *. 1e3) (ton *. 1e3) ratio (verdict ok);
  Cache.set_capacity_mb 256;
  write_bench_json ~pr:9 "BENCH_PR9.json"

(* ------------------------------------------------------------------ *)
(* F9: the wlcq daemon under concurrent load — the PR10 acceptance     *)
(* series.  An in-process daemon serves a mixed                        *)
(* decide/count/count-batch/treewidth workload from concurrent client  *)
(* domains (p50/p99/throughput rows), a warm repeated count workload   *)
(* must beat spawning the one-shot CLI per request by >= 2x, and a     *)
(* burst against a one-worker, shallow-queue daemon must shed with    *)
(* retry-after hints rather than queue without bound.  Rows land in    *)
(* BENCH_PR10.json.                                                    *)
(* ------------------------------------------------------------------ *)

module Serve = Wlcq_serve.Server
module Sclient = Wlcq_serve.Client
module Wire = Wlcq_serve.Wire

let serve_socket tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "wlcq-bench-%s-%d.sock" tag (Unix.getpid ()))

(* run [f] against a live in-process daemon; always drains it *)
let with_daemon ~tag cfg_of f =
  let socket = serve_socket tag in
  if Sys.file_exists socket then Sys.remove socket;
  let t = Serve.create (cfg_of (Serve.default_config ~socket_path:socket)) in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Serve.run ~on_listening:(fun () -> Atomic.set ready true) t)
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.shutdown t;
      Domain.join d;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      while not (Atomic.get ready) do
        Unix.sleepf 0.002
      done;
      f ~socket)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (p * n / 100))

let f9 () =
  header "F9" "wlcq serve: concurrent load, latency and backpressure";
  pr4_rows := [];
  let star2 = "(x1, x2) := exists y . E(x1, y) & E(x2, y)" in
  let edgeq = "(x1, x2) := E(x1, x2)" in
  let count_graph = "gnp:24,0.3,5" in
  let req id op = { Wire.id; deadline_ms = None; max_live_mb = None; op } in
  let expect_ok what = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "Main.f9: %s: %s" what e)
  in
  (* ground truth for the result checks, computed in-process *)
  let parse_q s = (Wlcq_core.Parser.parse_exn s).Wlcq_core.Parser.query in
  let parse_g s =
    match G.Spec.parse s with
    | Ok g -> g
    | Error e -> failwith ("Main.f9: " ^ e)
  in
  let star2_count =
    Cq.count_answers (parse_q star2) (parse_g count_graph)
  in
  let edge_count = Cq.count_answers (parse_q edgeq) (parse_g "cycle:8") in
  let star2_c8 = Cq.count_answers (parse_q star2) (parse_g "cycle:8") in
  (* ---- mixed concurrent load: p50 / p99 / throughput --------------- *)
  let clients = 3 and per_client = 60 in
  let mixed_ok = Atomic.make true in
  let latencies_of ~socket cid =
    let c = expect_ok "connect" (Sclient.connect ~socket ()) in
    Fun.protect ~finally:(fun () -> Sclient.close c) (fun () ->
        Array.init per_client (fun i ->
            let id = Printf.sprintf "c%d-%d" cid i in
            let op, check =
              match i mod 4 with
              | 0 ->
                ( Wire.Count { query = star2; graph = count_graph },
                  fun (r : Wire.response) ->
                    String.equal r.Wire.r_value (string_of_int star2_count) )
              | 1 ->
                ( Wire.Decide { k = 1; g1 = "cycle:6"; g2 = "twotriangles" },
                  fun r -> String.equal r.Wire.r_value "true" )
              | 2 ->
                ( Wire.Count_batch
                    { queries = [ edgeq; star2 ]; graph = "cycle:8" },
                  fun r ->
                    String.equal r.Wire.r_value
                      (Printf.sprintf "%d,%d" edge_count star2_c8) )
              | _ ->
                ( Wire.Treewidth { graph = "clique:6" },
                  fun r -> String.equal r.Wire.r_value "5" )
            in
            let t0 = Obs.now_ns () in
            let r = expect_ok "request" (Sclient.request c (req id op)) in
            let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
            (match r.Wire.r_status with
             | Wire.Ok_ -> if not (check r) then Atomic.set mixed_ok false
             | _ -> Atomic.set mixed_ok false);
            dt))
  in
  let total_wall, all_lat =
    with_daemon ~tag:"f9-load"
      (fun c -> { c with Serve.workers = 2 })
      (fun ~socket ->
        (* one warm-up pass primes the content tier and the decomp memo *)
        ignore (latencies_of ~socket 999);
        let t0 = Obs.now_ns () in
        let doms =
          List.init clients (fun cid ->
              Domain.spawn (fun () -> latencies_of ~socket cid))
        in
        let lat = List.concat_map (fun d -> Array.to_list (Domain.join d)) doms in
        let wall = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
        (wall, Array.of_list lat))
  in
  Array.sort Float.compare all_lat;
  let n_req = Array.length all_lat in
  let p50 = percentile all_lat 50 and p99 = percentile all_lat 99 in
  let throughput = float_of_int n_req /. Float.max total_wall 1e-9 in
  let ok = Atomic.get mixed_ok && n_req = clients * per_client in
  record ok;
  pr4_rows := ("F9", "mixed-load/p50-vs-p99", p99, p50) :: !pr4_rows;
  Printf.printf
    "F9  mixed load: %d req / %d clients  p50 %.2f ms  p99 %.2f ms  %7.0f \
     req/s %s\n"
    n_req clients (p50 *. 1e3) (p99 *. 1e3) throughput (verdict ok);
  (* ---- warm daemon vs one-shot CLI: the >= 2x floor ----------------- *)
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/wlcq.exe"
  in
  if not (Sys.file_exists cli) then begin
    record false;
    Printf.printf "F9  one-shot CLI not found at %s FAIL\n" cli
  end
  else begin
    let min_speedup = 2.0 in
    let shots = 8 in
    let cli_cmd =
      Printf.sprintf "%s ans %s --graph %s >/dev/null 2>&1"
        (Filename.quote cli)
        (Filename.quote star2)
        count_graph
    in
    (* every CLI shot pays process start-up and a cold cache: that is
       the baseline the resident daemon exists to beat *)
    let t0 = Obs.now_ns () in
    for _ = 1 to shots do
      if Sys.command cli_cmd <> 0 then failwith "Main.f9: one-shot CLI failed"
    done;
    let t_cli =
      Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9
      /. float_of_int shots
    in
    let t_daemon =
      with_daemon ~tag:"f9-oneshot"
        (fun c -> { c with Serve.workers = 1 })
        (fun ~socket ->
          let c = expect_ok "connect" (Sclient.connect ~socket ()) in
          Fun.protect ~finally:(fun () -> Sclient.close c) (fun () ->
              let shot i =
                let r =
                  expect_ok "request"
                    (Sclient.request c
                       (req (string_of_int i)
                          (Wire.Count { query = star2; graph = count_graph })))
                in
                if not (String.equal r.Wire.r_value (string_of_int star2_count))
                then failwith "Main.f9: daemon count disagrees with the engine"
              in
              shot 0 (* warm-up: primes the tier *);
              let t0 = Obs.now_ns () in
              for i = 1 to shots do
                shot i
              done;
              Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9
              /. float_of_int shots))
    in
    let speedup = t_cli /. Float.max t_daemon 1e-9 in
    let ok = speedup >= min_speedup in
    record ok;
    pr4_rows :=
      ("F9", "oneshot-cli-vs-daemon/star2-count", t_cli, t_daemon)
      :: !pr4_rows;
    Printf.printf
      "F9  one-shot CLI %8.2f ms vs warm daemon %8.2f ms %8.1fx (floor \
       %.0fx) %s\n"
      (t_cli *. 1e3) (t_daemon *. 1e3) speedup min_speedup (verdict ok)
  end;
  (* ---- backpressure: a burst against a shallow queue must shed ------ *)
  let burst = 24 in
  let shed, answered, retry_ok =
    with_daemon ~tag:"f9-burst"
      (fun c ->
        {
          c with
          Serve.workers = 1;
          max_queue = 4;
          max_queue_per_client = 2;
        })
      (fun ~socket ->
        let c = expect_ok "connect" (Sclient.connect ~socket ()) in
        Fun.protect ~finally:(fun () -> Sclient.close c) (fun () ->
            for i = 1 to burst do
              expect_ok "send"
                (Sclient.send c
                   {
                     Wire.id = Printf.sprintf "b%d" i;
                     deadline_ms = Some 400.0;
                     max_live_mb = None;
                     op = Wire.Treewidth { graph = "gnp:36,0.35,9" };
                   })
            done;
            let shed = ref 0 and answered = ref 0 and retry_ok = ref true in
            for _ = 1 to burst do
              let r = expect_ok "receive" (Sclient.receive c) in
              match r.Wire.r_status with
              | Wire.Overloaded ->
                incr shed;
                if Option.is_none r.Wire.r_retry_after_ms then retry_ok := false
              | Wire.Ok_ | Wire.Degraded | Wire.Exhausted -> incr answered
              | Wire.Error_ | Wire.Draining -> retry_ok := false
            done;
            (!shed, !answered, !retry_ok)))
  in
  let ok = shed >= 1 && answered >= 1 && retry_ok in
  record ok;
  Printf.printf
    "F9  burst %d on q=4/w=1: shed %d (rate %.2f, retry-after on all) \
     answered %d %s\n"
    burst shed
    (float_of_int shed /. float_of_int burst)
    answered (verdict ok);
  write_bench_json ~pr:10 "BENCH_PR10.json"

(* ------------------------------------------------------------------ *)
(* calibrate: re-derive the dispatch calibration constants.  Times the *)
(* candidate engines across an instance ladder and prints the observed *)
(* crossover points in the calibration table's own format; paste the   *)
(* suggestions into Dispatch.default_calibration after a hardware      *)
(* change (see DESIGN.md, "Adaptive engine dispatch").                 *)
(* ------------------------------------------------------------------ *)

(* [qpath k]: x0 - y0 - x1 - ... - y(k-2) - x(k-1), consecutive free
   variables joined through one quantified vertex (sew = 2). *)
let qpath k =
  let atoms =
    List.init (k - 1) (fun i ->
        Printf.sprintf "E(x%d, y%d) & E(y%d, x%d)" i i i (i + 1))
  in
  parse
    (Printf.sprintf "(%s) := exists %s . %s"
       (String.concat ", " (List.init k (Printf.sprintf "x%d")))
       (String.concat " " (List.init (k - 1) (Printf.sprintf "y%d")))
       (String.concat " & " atoms))

(* Answer-counting shapes on hosts from sparse to dense, each small
   enough for both engines: the calibration ladder.  The tail holds
   the shapes whose join outgrows the DP. *)
let answer_ladder () =
  let full_path k = Cq.make (G.Builders.path k) (List.init k Fun.id) in
  let queries =
    [ ("star2", Star.query 2); ("star3", Star.query 3);
      ("path2", Gen_query.quantified_path 2); ("qpath3", qpath 3);
      ("qpath4", qpath 4); ("full-path4", full_path 4) ]
  in
  let rng = Prng.create 43 in
  let hosts =
    [ ("grid3x4", G.Builders.grid 3 4); ("cycle40", G.Builders.cycle 40);
      ("gnp16,0.3", G.Gen.gnp rng 16 0.3); ("gnp24,0.5", G.Gen.gnp rng 24 0.5);
      ("gnp32,0.2", G.Gen.gnp rng 32 0.2); ("clique20", G.Builders.clique 20) ]
  in
  List.concat_map
    (fun (qn, q) -> List.map (fun (gn, g) -> (qn ^ "->" ^ gn, q, g)) hosts)
    queries
  @ [ ("qpath4->clique32", qpath 4, G.Builders.clique 32);
      ("qpath5->clique24", qpath 5, G.Builders.clique 24);
      ("qpath5->gnp32,0.5", qpath 5, G.Gen.gnp rng 32 0.5);
      ("qpath5->cycle40", qpath 5, G.Builders.cycle 40);
      ("qpath6->clique16", qpath 6, G.Builders.clique 16);
      ("full-path5->clique24", full_path 5, G.Builders.clique 24);
      ("full-path5->gnp32,0.5", full_path 5, G.Gen.gnp rng 32 0.5);
      ("full-path6->gnp20,0.3", full_path 6, G.Gen.gnp rng 20 0.3);
      ("star4->gnp16,0.5", Star.query 4, G.Gen.gnp rng 16 0.5) ]

let calibrate () =
  header "calibrate" "measure engine crossovers for the dispatch cost model";
  let reps = 60 in
  let repeat f () =
    for _ = 1 to reps do
      f ()
    done
  in
  let timed c f = Steer.with_calibration c (fun () -> snd (wall_time_best (repeat f))) in
  (* hom engines along a gnp ladder: the brute cutoff is the largest
     estimated brute cost at which enumeration still wins *)
  Printf.printf "%-18s %12s %12s %12s %8s\n" "hom instance" "brute_cost"
    "t_brute" "t_packed" "winner";
  let h = G.Builders.path 4 in
  let rng = Prng.create 41 in
  let brute_max = ref 0 in
  List.iter
    (fun n ->
       let g = G.Gen.gnp rng n 0.3 in
       let cost =
         Dispatch.brute_cost ~nh:(G.Graph.num_vertices h) ~ng:n
           ~mg:(G.Graph.num_edges g)
       in
       let tb = timed Steer.brute (fun () -> ignore (Wlcq_hom.Td_count.count h g)) in
       let tp = timed Steer.packed (fun () -> ignore (Wlcq_hom.Td_count.count h g)) in
       if tb < tp then brute_max := max !brute_max cost;
       Printf.printf "%-18s %12d %10.2f ms %10.2f ms %8s\n"
         (Printf.sprintf "P4->gnp%d" n)
         cost (tb *. 1e3) (tp *. 1e3)
         (if tb < tp then "brute" else "packed"))
    [ 4; 6; 8; 10; 14; 20; 28 ];
  (* answer engines on a ladder of shapes and hosts: the kernel's
     predicted work per DP work unit ({!Dispatch.answer_costs}) against
     which engine won.  The suggested [enum_answers_max] is the ratio
     cutoff that loses the least time over the ladder. *)
  Printf.printf "\n%-24s %10s %10s %8s %12s %12s %8s\n" "ans instance"
    "kernel" "dp" "ratio" "t_kernel" "t_packed" "winner";
  let rows =
    List.map
      (fun (name, q, g) ->
         let count () = ignore (Fast_count.count_answers q g) in
         (* per call, over as many repetitions as fit ~20 ms (at most
            [reps]) *)
         let per_call c =
           Steer.with_calibration c (fun () ->
               let t1 = snd (wall_time count) in
               let r =
                 max 1 (min reps (int_of_float (0.02 /. Float.max t1 1e-6)))
               in
               snd (wall_time_best (fun () -> for _ = 1 to r do count () done))
               /. float_of_int r)
         in
         let tk = per_call Steer.brute and tp = per_call Steer.packed in
         let kernel, dp = Fast_count.answer_costs q g in
         let ratio = float_of_int kernel /. float_of_int (max 1 dp) in
         Printf.printf "%-24s %10d %10d %8.2f %9.3f ms %9.3f ms %8s\n" name
           kernel dp ratio (tk *. 1e3) (tp *. 1e3)
           (if tk < tp then "kernel" else "packed");
         (ratio, tk, tp, kernel))
      (answer_ladder ())
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    if Array.length a = 0 then 0.0 else a.(Array.length a / 2)
  in
  (* the seconds per predicted kernel step, where the kernel's own work
     (not its fixed cost) dominates *)
  let kernel_step =
    median
      (List.filter_map
         (fun (_, tk, _, kernel) ->
            if kernel >= 1000 then Some (tk /. float_of_int kernel) else None)
         rows)
  in
  let rows = List.map (fun (r, tk, tp, _) -> (r, tk, tp)) rows in
  (* the time a cutoff loses against always picking the faster engine *)
  let lost cut =
    List.fold_left
      (fun acc (r, tk, tp) ->
         acc +. (if r <= cut then tk else tp) -. Float.min tk tp)
      0.0 rows
  in
  let enum_max =
    List.fold_left
      (fun best (r, _, _) -> if lost r < lost best then r else best)
      0.0 rows
  in
  Printf.printf "time lost at the suggested cutoff: %.3f ms\n"
    (lost enum_max *. 1e3);
  (* canonical labelling: seconds per search node per vertex and edge,
     over graphs like the daemon's (random, cubic, cycle unions, CFI);
     a node count is the least [limit] the search fits in *)
  Printf.printf "\n%-24s %8s %10s %14s\n" "canon instance" "nodes" "t_canon"
    "per node, n+m";
  let nodes_of g =
    let fits l =
      match G.Iso.canonical_digest ~limit:l g with
      | _ -> true
      | exception G.Iso.Canonical_limit -> false
    in
    let rec widen hi = if fits hi then hi else widen (2 * hi) in
    let rec narrow lo hi =
      if lo >= hi then hi
      else
        let mid = (lo + hi) / 2 in
        if fits mid then narrow lo mid else narrow (mid + 1) hi
    in
    let hi = widen 1 in
    narrow (hi / 2) hi
  in
  let cycles rng n =
    let rec go g left =
      if left < 6 then G.Ops.disjoint_union g (G.Builders.cycle (max 3 left))
      else
        let len = 3 + Prng.int rng (left - 5) in
        go (G.Ops.disjoint_union g (G.Builders.cycle len)) (left - len)
    in
    go (G.Graph.empty 0) n
  in
  let rng = Prng.create 47 in
  let canon_graphs =
    [ ("gnp12,0.35", G.Gen.gnp rng 12 0.35); ("gnp20,0.3", G.Gen.gnp rng 20 0.3);
      ("gnp40,0.2", G.Gen.gnp rng 40 0.2);
      ("cubic16", G.Gen.random_regular_ish rng 16 3);
      ("cycles14", cycles rng 14); ("cycles24", cycles rng 24);
      ("cfi-K4", (Cfi.build (G.Builders.clique 4) (Wlcq_util.Bitset.create 4)).Cfi.graph);
      ("petersen", G.Builders.petersen ()) ]
  in
  let node_step =
    median
      (List.map
         (fun (name, g) ->
            let nodes = nodes_of g in
            let size = G.Graph.num_vertices g + G.Graph.num_edges g in
            let r = 200 in
            let t =
              snd
                (wall_time_best (fun () ->
                     for _ = 1 to r do ignore (G.Iso.canonical_digest g) done))
              /. float_of_int r
            in
            let per = t /. float_of_int (nodes * size) in
            Printf.printf "%-24s %8d %9.1f us %11.1f ns\n" name nodes (t *. 1e6)
              (per *. 1e9);
            per)
         canon_graphs)
  in
  let c = Dispatch.default_calibration in
  Printf.printf
    "\nsuggested calibration (measured crossovers, compiled-in defaults \
     in parentheses):\n";
  Printf.printf "  canon_node_steps = %d  (%d)  (%.1f ns per node and n+m over \
                 %.2f ns per kernel step)\n"
    (int_of_float (Float.ceil (node_step /. Float.max kernel_step 1e-12)))
    c.Dispatch.canon_node_steps (node_step *. 1e9) (kernel_step *. 1e9);
  Printf.printf "  brute_hom_max    = %d  (%d)\n" !brute_max
    c.Dispatch.brute_hom_max;
  Printf.printf "  enum_answers_max = %d  (%d)\n"
    (int_of_float (Float.ceil enum_max)) c.Dispatch.enum_answers_max;
  Printf.printf
    "  prune_min_work / dp_parallel_min / wl_parallel_min / wl_chunk / \
     dense_key_bits: retime with F4/F2 workloads; current %d / %d / %d / \
     %d / %d\n"
    c.Dispatch.prune_min_work c.Dispatch.dp_parallel_min
    c.Dispatch.wl_parallel_min c.Dispatch.wl_chunk c.Dispatch.dense_key_bits


(* ------------------------------------------------------------------ *)
(* F4: budget-check overhead.  A live budget with an unreachable       *)
(* deadline threads every engine's tick/check sites without ever      *)
(* tripping; the acceptance bound is <= 3% over the unbudgeted run on  *)
(* the F1b DP workload and the F2 k-WL workload.                       *)
(* ------------------------------------------------------------------ *)

let f4 () =
  header "F4" "budget-check overhead: huge deadline vs no budget (<= 3%)";
  let max_ratio = 1.03 in
  Printf.printf "%-26s %12s %12s %8s %-7s\n" "instance" "no-budget"
    "budgeted" "ratio" "verdict";
  (* best-of-9: the enforced bound is tight, so lean harder than the
     best-of-3 speedup rows on the minimum-as-estimator *)
  let best_of f =
    let r, t0 = wall_time f in
    let t = ref t0 in
    for _ = 2 to 9 do
      let _, ti = wall_time f in
      if ti < !t then t := ti
    done;
    (r, !t)
  in
  let overhead_row name run_plain run_budgeted agree =
    let plain_r, tplain = best_of run_plain in
    let budget_r, tbudget = best_of run_budgeted in
    let ratio = tbudget /. Float.max tplain 1e-9 in
    let ok = agree plain_r budget_r && ratio <= max_ratio in
    record ok;
    Printf.printf "%-26s %9.2f ms %9.2f ms %7.3fx %-7s\n" name
      (tplain *. 1e3) (tbudget *. 1e3) ratio (verdict ok)
  in
  let huge () = Budget.create ~deadline_ms:3.6e6 () in
  (* F1b workload: the packed DP on the largest F1 instance *)
  let h = G.Builders.path 4 in
  (* same rng discipline as F1b: the 40-vertex instance is the third
     draw after the 10- and 20-vertex ones *)
  let rng = Prng.create 41 in
  ignore (G.Gen.gnp rng 10 0.3);
  ignore (G.Gen.gnp rng 20 0.3);
  let g = G.Gen.gnp rng 40 0.3 in
  let d = TW.Exact.optimal_decomposition h in
  let reps = 25 in
  let repeat f () =
    let r = ref (f ()) in
    for _ = 2 to reps do
      r := f ()
    done;
    !r
  in
  overhead_row "td-dp/gnp40"
    (repeat (fun () -> Wlcq_hom.Td_count.count_with_decomposition d h g))
    (repeat (fun () ->
         Wlcq_hom.Td_count.count_with_decomposition ~budget:(huge ()) d h g))
    Bigint.equal;
  (* F2 workload: 2-WL to the stable colouring on a mid-size graph *)
  let gw = G.Gen.gnp (Prng.create 43) 48 0.2 in
  overhead_row "kwl2/gnp48"
    (repeat (fun () -> (Wlcq_wl.Kwl.run 2 gw).Wlcq_wl.Kwl.num_colours))
    (repeat (fun () ->
         match Wlcq_wl.Kwl.run_budgeted ~budget:(huge ()) 2 gw with
         | `Exact r -> r.Wlcq_wl.Kwl.num_colours
         | `Degraded _ | `Exhausted _ -> -1))
    ( = )

let f2 () =
  header "F2" "k-WL runtime and rounds";
  (* rounds report *)
  Printf.printf "%-14s %-4s %-8s %-8s\n" "graph" "k" "rounds" "colours";
  List.iter
    (fun (name, g) ->
       let r1 = Wlcq_wl.Refinement.run g in
       Printf.printf "%-14s %-4d %-8d %-8d\n" name 1 r1.Wlcq_wl.Refinement.rounds
         r1.Wlcq_wl.Refinement.num_colours;
       let r2 = Wlcq_wl.Kwl.run 2 g in
       Printf.printf "%-14s %-4d %-8d %-8d\n" name 2 r2.Wlcq_wl.Kwl.rounds
         r2.Wlcq_wl.Kwl.num_colours)
    [ ("petersen", G.Builders.petersen ());
      ("grid4x4", G.Builders.grid 4 4);
      ("chi(C4)", (Cfi.even (G.Builders.cycle 4)).Cfi.graph) ];
  (* old-vs-new: the list-based reference engine against the hashed
     flat-buffer engine, forced single-thread, full runs to the stable
     partition.  Partition cardinality and round count must agree. *)
  Printf.printf
    "\nold-vs-new (single thread, full run to stabilisation, monotonic wall \
     time):\n";
  Printf.printf "%-22s %-3s %12s %12s %9s %-7s\n" "instance" "k" "old" "new"
    "speedup" "verdict";
  let single_agree (a : Wlcq_wl.Kwl.result) (b : Wlcq_wl.Kwl.result) =
    a.Wlcq_wl.Kwl.num_colours = b.Wlcq_wl.Kwl.num_colours
    && a.Wlcq_wl.Kwl.rounds = b.Wlcq_wl.Kwl.rounds
  in
  let pair_agree (a1, a2) (b1, b2) = single_agree a1 b1 && single_agree a2 b2 in
  let rng_su = Prng.create 77 in
  List.iter
    (fun (name, k, g) ->
       speedup_row name k
         (fun () -> Wlcq_wl.Kwl.run_reference k g)
         (fun () -> Wlcq_wl.Kwl.run ~domains:1 k g)
         single_agree)
    [ ("gnp12", 2, G.Gen.gnp rng_su 12 0.3);
      ("gnp20", 2, G.Gen.gnp rng_su 20 0.3);
      ("gnp10", 3, G.Gen.gnp rng_su 10 0.3) ];
  (* the acceptance instance: a 20-vertex CFI twisted pair at k = 3 *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.cycle 10) in
  speedup_row ~min_speedup:5.0
    (Printf.sprintf "chi(C10) pair (n=%d)" (Cfi.num_vertices even))
    3
    (fun () -> Wlcq_wl.Kwl.run_pair_reference 3 even.Cfi.graph odd.Cfi.graph)
    (fun () -> Wlcq_wl.Kwl.run_pair ~domains:1 3 even.Cfi.graph odd.Cfi.graph)
    pair_agree;
  let rng = Prng.create 42 in
  let tests =
    List.concat_map
      (fun n ->
         let g = G.Gen.gnp rng n 0.3 in
         [ Bechamel.Test.make
             ~name:(Printf.sprintf "1-WL/gnp%d" n)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Wlcq_wl.Refinement.run g)));
           Bechamel.Test.make
             ~name:(Printf.sprintf "2-WL/gnp%d" n)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Wlcq_wl.Kwl.run ~domains:1 2 g)));
           Bechamel.Test.make
             ~name:(Printf.sprintf "2-WL-par/gnp%d" n)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Wlcq_wl.Kwl.run 2 g))) ])
      [ 8; 16; 24; 32; 48 ]
    @ (let g = G.Gen.gnp rng 12 0.3 in
       [ Bechamel.Test.make ~name:"3-WL/gnp12"
           (Bechamel.Staged.stage (fun () ->
                ignore (Wlcq_wl.Kwl.run ~domains:1 3 g)));
         Bechamel.Test.make ~name:"3-WL-par/gnp12"
           (Bechamel.Staged.stage (fun () ->
                ignore (Wlcq_wl.Kwl.run 3 g))) ])
  in
  run_timing "F2-kWL" tests

let f3 () =
  header "F3"
    "answer counting cost: bounded-sew family vs star family (Cor. 4 shape)";
  let g = G.Builders.grid 3 4 in
  (* a dense host on the same 12 vertices: every k-tuple of K12 has a
     common neighbour, so |Ans(star k)| = 12^k and the star family's
     n^k is the size of the answer set itself *)
  let dense = G.Builders.clique 12 in
  let count q g = Bigint.to_string (Fast_count.count_answers q g) in
  (* bounded family: quantified paths between two free endpoints,
     sew = 2 for every length *)
  let quant_path = Gen_query.quantified_path in
  Printf.printf "%-22s %-6s %-16s %-12s\n" "query" "sew" "|Ans| on grid3x4"
    "|Ans| on K12";
  let show name q =
    Printf.printf "%-22s %-6d %-16s %-12s\n" name
      (Extension.semantic_extension_width q) (count q g) (count q dense)
  in
  List.iter
    (fun len -> show (Printf.sprintf "quant-path len %d" len) (quant_path len))
    [ 1; 2; 3; 4 ];
  List.iter (fun k -> show (Printf.sprintf "star %d" k) (Star.query k))
    [ 1; 2; 3; 4 ];
  (* every row times the shipped counter, Fast_count, whichever engine
     dispatch picks for it *)
  let row name q g =
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () -> ignore (Fast_count.count_answers q g)))
  in
  let tests =
    List.map
      (fun len ->
         row (Printf.sprintf "bounded-sew/quant-path%d" len) (quant_path len) g)
      [ 1; 2; 3; 4 ]
    @ List.concat_map
      (fun k ->
         [ row (Printf.sprintf "unbounded-sew/star%d" k) (Star.query k) g;
           row (Printf.sprintf "unbounded-sew/star%d-K12" k) (Star.query k)
             dense ])
      [ 1; 2; 3; 4 ]
  in
  run_timing "F3-answer-counting" tests;
  (* the Corollary 4 tractable algorithm vs plain enumeration: full
     path queries have ew = 1, so Fast_count's n^{O(1)}·|query| beats
     the n^k enumeration as the number of free variables grows *)
  let full_path k = Cq.make (G.Builders.path k) (List.init k (fun i -> i)) in
  let tests =
    List.concat_map
      (fun k ->
         let q = full_path k in
         [ Bechamel.Test.make
             ~name:(Printf.sprintf "enumerate/path%d" k)
             (Bechamel.Staged.stage (fun () -> ignore (Cq.count_answers q g)));
           Bechamel.Test.make
             ~name:(Printf.sprintf "fast-dp/path%d" k)
             (Bechamel.Staged.stage (fun () ->
                  ignore (Fast_count.count_answers q g))) ])
      [ 2; 3; 4; 5 ]
  in
  run_timing "F3b-corollary4-algorithm" tests

(* ------------------------------------------------------------------ *)
(* Ablation: exact treewidth BB vs subset DP (DESIGN.md design choice) *)
(* ------------------------------------------------------------------ *)

let tw_search_nodes = Obs.counter "tw.search_nodes"

(* [tw_searched g] is the branch-and-bound treewidth of [g] and the
   number of search nodes it visited. *)
let tw_searched g =
  let before = Obs.counter_value tw_search_nodes in
  let w = TW.Exact.treewidth g in
  (w, Obs.counter_value tw_search_nodes - before)

let ablation () =
  header "A1" "ablation: branch-and-bound vs subset-DP exact treewidth";
  let rng = Prng.create 123 in
  let graphs =
    List.init 5 (fun i -> (Printf.sprintf "gnp14-%d" i, open_gnp rng 14 0.35))
  in
  Printf.printf "%-10s %-5s %-5s %-6s %-7s\n" "graph" "bb" "dp" "nodes"
    "verdict";
  List.iter
    (fun (name, g) ->
       let (a, nodes) = tw_searched g and b = TW.Exact.treewidth_dp g in
       let ok = a = b && nodes > 0 in
       record ok;
       Printf.printf "%-10s %-5d %-5d %-6d %-7s\n" name a b nodes (verdict ok))
    graphs;
  let tests =
    List.concat_map
      (fun (name, g) ->
         [ Bechamel.Test.make ~name:("bb/" ^ name)
             (Bechamel.Staged.stage (fun () -> ignore (TW.Exact.treewidth g)));
           Bechamel.Test.make ~name:("dp/" ^ name)
             (Bechamel.Staged.stage (fun () ->
                  ignore (TW.Exact.treewidth_dp g))) ])
      (match graphs with g0 :: _ -> [ g0 ] | [] -> [])
  in
  run_timing "A1-treewidth" tests;
  (* second ablation: the three homomorphism counters agree; the two
     decomposition DPs trade constant factors *)
  header "A2" "ablation: brute vs bag-DP vs nice-DP homomorphism counting";
  let h = G.Builders.cycle 5 in
  let g = G.Gen.gnp (Prng.create 321) 20 0.3 in
  let brute = Bigint.of_int (Wlcq_hom.Brute.count h g) in
  let td = Wlcq_hom.Td_count.count h g in
  let nice = Wlcq_oracle.Nice_count.count h g in
  let ok = Bigint.equal brute td && Bigint.equal td nice in
  record ok;
  Printf.printf "Hom(C5, gnp20): brute=%s bag-dp=%s nice-dp=%s %s\n"
    (Bigint.to_string brute) (Bigint.to_string td) (Bigint.to_string nice)
    (verdict ok);
  let tests =
    [ Bechamel.Test.make ~name:"brute/C5->gnp20"
        (Bechamel.Staged.stage (fun () -> ignore (Wlcq_hom.Brute.count h g)));
      Bechamel.Test.make ~name:"bag-dp/C5->gnp20"
        (Bechamel.Staged.stage (fun () -> ignore (Wlcq_hom.Td_count.count h g)));
      Bechamel.Test.make ~name:"nice-dp/C5->gnp20"
        (Bechamel.Staged.stage (fun () ->
             ignore (Wlcq_oracle.Nice_count.count h g))) ]
  in
  run_timing "A2-hom-counters" tests

(* ------------------------------------------------------------------ *)
(* timing-smoke: one tiny instance per timing series, for CI.  Runs in *)
(* well under a second and exits non-zero on any disagreement, so the  *)
(* bench executable itself is exercised by `dune runtest`.             *)
(* ------------------------------------------------------------------ *)

let timing_smoke () =
  header "timing-smoke" "one tiny instance per series (F1-F3, A1)";
  (* the smoke run doubles as the observability tripwire: record
     everything, including trace events, and assert on it below *)
  Obs.set_enabled true;
  Obs.set_tracing true;
  (* F1: the two hom-counting engines agree *)
  let h = G.Builders.path 4 in
  let g = G.Gen.gnp (Prng.create 7) 10 0.3 in
  let brute = Bigint.of_int (Wlcq_hom.Brute.count h g) in
  let td = Wlcq_hom.Td_count.count h g in
  let ok = Bigint.equal brute td in
  record ok;
  Printf.printf "F1  Hom(P4, gnp10): brute=%s td-dp=%s %s\n"
    (Bigint.to_string brute) (Bigint.to_string td) (verdict ok);
  (* F2: the hashed WL engines match the reference verdicts *)
  let even, odd = Wlcq_cfi.Pairs.twisted_pair (G.Builders.cycle 4) in
  let ge = even.Cfi.graph and go = odd.Cfi.graph in
  let ok =
    Wlcq_wl.Refinement.equivalent ge go
    && (not (Wlcq_wl.Kwl.equivalent 2 ge go))
    && Wlcq_wl.Kwl.equivalent 2 ge go
       = Wlcq_wl.Kwl.equivalent_reference 2 ge go
  in
  record ok;
  Printf.printf
    "F2  chi(C4) twist: 1-WL-equivalent, 2-WL-separated, engines agree %s\n"
    (verdict ok);
  (* F3: enumeration and the Corollary 4 DP agree *)
  let q = Gen_query.quantified_path 2 in
  let g3 = G.Builders.grid 3 3 in
  let direct = Cq.count_answers q g3 in
  let fast = Fast_count.count_answers q g3 in
  let ok = Bigint.equal fast (Bigint.of_int direct) in
  record ok;
  Printf.printf "F3  quant-path2 on grid3x3: direct=%d fast-dp=%s %s\n" direct
    (Bigint.to_string fast) (verdict ok);
  (* A1: the two exact treewidth algorithms agree, on a draw where the
     branch and bound has to search *)
  let g = open_gnp (Prng.create 9) 12 0.35 in
  let (a, nodes) = tw_searched g and b = TW.Exact.treewidth_dp g in
  let ok = a = b && nodes > 0 in
  record ok;
  Printf.printf "A1  treewidth gnp12: bb=%d dp=%d search nodes=%d %s\n" a b
    nodes (verdict ok);
  (* F1b: packed engine vs reference on a target with an isolated
     vertex — the isolated vertex is outside the support of every
     pattern position, so candidate pruning is guaranteed to fire.
     Under the default table these tiny instances route to the
     small-instance fast paths (the point of the dispatch layer), so the
     packed machinery and its tripwire counters below are driven by a
     run steered through the calibration table, which reproduces the
     full arc-consistency + packed-table pipeline regardless of
     instance size. *)
  let hp = G.Builders.path 4 in
  let gp =
    G.Ops.disjoint_union (G.Gen.gnp (Prng.create 11) 8 0.4) (G.Graph.empty 1)
  in
  let packed_steered =
    Steer.with_calibration Steer.packed (fun () ->
        ignore (Fast_count.count_answers q g3);
        Wlcq_hom.Td_count.count hp gp)
  in
  let ok =
    Bigint.equal packed_steered (Wlcq_oracle.Td_ref.count hp gp)
    && Bigint.equal packed_steered (Wlcq_hom.Td_count.count hp gp)
  in
  record ok;
  Printf.printf
    "F1b steered-packed = reference = auto on gnp8 + isolated vertex %s\n"
    (verdict ok);
  (* exercise the remaining auto decision path so every dispatch
     counter asserted below has moved: a brute-cost instance *)
  ignore (Wlcq_hom.Td_count.count (G.Builders.path 2) (G.Builders.path 3));
  (* ---- observability tripwires (see ISSUE 3 acceptance criteria) ---- *)
  (* a guaranteed full k-WL run so kwl.rounds is non-zero even if the
     equivalence checks above all diverged at the initial colouring *)
  ignore (Wlcq_wl.Kwl.run 2 (G.Builders.path 4));
  (* exercise the two memo caches twice each so their hit counters move *)
  ignore (Wl_dimension.equivalent_cached 2 ge go);
  ignore (Wl_dimension.equivalent_cached 2 ge go);
  ignore (Wlcq_wl.Hom_profile.patterns ~max_size:4 ~tw_bound:1);
  ignore (Wlcq_wl.Hom_profile.patterns ~max_size:4 ~tw_bound:1);
  let counter_nonzero name =
    match Obs.find_counter name with
    | Some c -> Obs.counter_value c > 0
    | None -> false
  in
  let registry_ok = not (List.is_empty (Obs.counters ())) in
  record registry_ok;
  Printf.printf "Obs registry non-empty: %d counters %s\n"
    (List.length (Obs.counters ()))
    (verdict registry_ok);
  List.iter
    (fun name ->
       let ok = counter_nonzero name in
       record ok;
       Printf.printf "Obs counter %-28s non-zero %s\n" name (verdict ok))
    [ "kwl.rounds"; "td_count.dp_entries"; "wl_dimension.cache_hits";
      "td_count.packed_keys"; "td_count.candidates_pruned";
      "fast_count.packed_keys";
      (* every dispatch decision path must have fired above: picks of
         brute / packed-lean / enum under the default table, the steered
         packed run, the candidate-pruning choice and a sequential DP *)
      "dispatch.chose_brute"; "dispatch.chose_packed"; "dispatch.chose_enum";
      "dispatch.chose_lean"; "dispatch.chose_prune"; "dispatch.chose_seq" ];
  (* cache hit rates must be positive: a rate that drops to 0 (or a
     renamed counter, reported as None) means a memo regression *)
  List.iter
    (fun (label, hits, misses) ->
       let ok =
         match Obs.report_hit_rate ~hits ~misses with
         | Some r -> r > 0.0
         | None -> false
       in
       record ok;
       Printf.printf "Obs hit rate %-28s positive %s\n" label (verdict ok))
    [ ("wl_dimension.equivalent_cached", "wl_dimension.cache_hits",
       "wl_dimension.cache_misses");
      ("hom_profile.patterns", "hom_profile.cache_hits",
       "hom_profile.cache_misses") ];
  (* robustness tripwires: a hand-tripped budget must degrade the
     treewidth search (loose-bracket instance) and move the robust
     counters *)
  let b = Budget.create () in
  Budget.trip b Budget.Deadline;
  let g_loose = G.Gen.gnp (Prng.create 26) 9 0.5 in
  let ok =
    match TW.Exact.treewidth_budgeted ~budget:b g_loose with
    | `Degraded (w, _) -> w >= TW.Exact.treewidth g_loose
    | `Exact _ | `Exhausted _ -> false
  in
  record ok;
  Printf.printf "F4  tripped budget degrades the treewidth search %s\n"
    (verdict ok);
  List.iter
    (fun name ->
       let ok = counter_nonzero name in
       record ok;
       Printf.printf "Obs counter %-28s non-zero %s\n" name (verdict ok))
    [ "robust.budget.created"; "robust.fallback.tw_heuristic" ];
  (* dispatch mispredict tripwire: on each calibration instance the
     default table must never pick an engine >= 2x slower than the best
     engine steered through a calibration table; a firing tripwire
     means the calibration constants have drifted from the hardware
     (re-derive with `calibrate`) *)
  let m_mispredict = Obs.counter "dispatch.mispredict" in
  let mis_reps = 30 in
  let mis_repeat f () =
    for _ = 1 to mis_reps do
      f ()
    done
  in
  let check_mispredict label f =
    let timed () = snd (wall_time_best (mis_repeat f)) in
    let t_auto = timed () in
    let steered c = Steer.with_calibration c timed in
    let best = Float.min (steered Steer.brute) (steered Steer.packed) in
    if t_auto > 2.0 *. best then Obs.incr m_mispredict;
    Printf.printf "dispatch %-22s auto %8.2f ms best-steered %8.2f ms\n" label
      (t_auto *. 1e3) (best *. 1e3)
  in
  let hq = G.Builders.path 4 in
  let gq10 = G.Gen.gnp (Prng.create 7) 10 0.3 in
  check_mispredict "hom/P4->gnp10" (fun () ->
      ignore (Wlcq_hom.Td_count.count hq gq10));
  check_mispredict "ans/qpath2->grid3x3" (fun () ->
      ignore (Fast_count.count_answers q g3));
  let mis_ok =
    match Obs.find_counter "dispatch.mispredict" with
    | Some c -> Obs.counter_value c = 0
    | None -> false
  in
  record mis_ok;
  Printf.printf "Obs counter dispatch.mispredict      zero     %s\n"
    (verdict mis_ok);
  (* the trace exporter must produce one valid JSON array with events *)
  let tj = Obs.trace_json () in
  let trace_ok = Obs.json_parseable tj && String.length tj > 4 in
  record trace_ok;
  Printf.printf "Obs trace JSON parseable (%d bytes) %s\n" (String.length tj)
    (verdict trace_ok);
  (* ---- PR8 acceptance: armed-observability overhead + snapshots ---- *)
  (* Armed = metrics and the flight recorder on, tracing off; the 3%
     ceiling is over the fully disabled path on the F4 workloads.
     Unlike [wall_time], the armed side must keep Obs on around the
     measured closure. *)
  Obs.set_tracing false;
  pr4_rows := [];
  let max_armed_ratio = 1.03 in
  let timed_with ~armed f =
    Obs.set_enabled armed;
    Obs.set_journal armed;
    Gc.full_major ();
    let r, ns = Obs.time_ns f in
    Obs.set_enabled false;
    Obs.set_journal false;
    (r, Int64.to_float ns /. 1e9)
  in
  (* Low quantile of paired ratios: ambient load on this box drifts by
     more than the enforced 3% ceiling, so minima of separately
     measured off/on blocks can land in different load regimes, and
     even a median pair inherits whatever spike split it.  Each off/on
     pair is measured back to back (same regime for both sides of one
     ratio); a real multiplicative regression in the armed path lifts
     every pair's ratio, so the 2nd-smallest of 11 still catches it,
     while load spikes — which only ever inflate some pairs — land in
     the discarded tail. *)
  let armed_row name run agree =
    let pairs = 11 in
    let samples =
      Array.init pairs (fun _ ->
          let off_r, toff = timed_with ~armed:false run in
          let on_r, ton = timed_with ~armed:true run in
          (off_r, on_r, toff, ton))
    in
    Array.sort
      (fun (_, _, o1, n1) (_, _, o2, n2) ->
         Float.compare (n1 /. o1) (n2 /. o2))
      samples;
    let off_r, on_r, toff, ton = samples.(1) in
    let ratio = ton /. Float.max toff 1e-9 in
    let ok = agree off_r on_r && ratio <= max_armed_ratio in
    record ok;
    pr4_rows := ("F7-armed-obs", name, toff, ton) :: !pr4_rows;
    Printf.printf "F7  armed obs %-20s off %8.2f ms on %8.2f ms %6.3fx %-7s\n"
      name (toff *. 1e3) (ton *. 1e3) ratio (verdict ok)
  in
  let h4 = G.Builders.path 4 in
  let rng = Prng.create 41 in
  ignore (G.Gen.gnp rng 10 0.3);
  ignore (G.Gen.gnp rng 20 0.3);
  let g40 = G.Gen.gnp rng 40 0.3 in
  let d4 = TW.Exact.optimal_decomposition h4 in
  (* 64 reps per sample: each DP run is ~0.1 ms, and a sample much
     under ~8 ms leaves the enforced 3% ceiling inside timer noise *)
  let repeat64 f () =
    let r = ref (f ()) in
    for _ = 2 to 64 do
      r := f ()
    done;
    !r
  in
  armed_row "td-dp/gnp40"
    (repeat64 (fun () -> Wlcq_hom.Td_count.count_with_decomposition d4 h4 g40))
    Bigint.equal;
  let gw48 = G.Gen.gnp (Prng.create 43) 48 0.2 in
  armed_row "kwl2/gnp48"
    (fun () ->
       (* two runs per sample: a single ~10 ms shot leaves the min
          estimator exposed to one unlucky preemption *)
       ignore (Wlcq_wl.Kwl.run 2 gw48).Wlcq_wl.Kwl.num_colours;
       (Wlcq_wl.Kwl.run 2 gw48).Wlcq_wl.Kwl.num_colours)
    ( = );
  Obs.set_enabled true;
  (* per-entry wall-time histograms: drive two budgeted surfaces, then
     enforce count > 0 and 0 < p50 <= p99 on their entry histograms *)
  (match Wlcq_hom.Td_count.count_budgeted ~budget:Budget.unlimited h4 g40 with
   | `Exact _ -> ()
   | `Degraded _ | `Exhausted _ -> record false);
  ignore (Wlcq_wl.Kwl.run_many 2 [ G.Builders.path 4 ]);
  let hist_floor name =
    let ok =
      match Obs.find_distribution name with
      | None -> false
      | Some d ->
        (Obs.distribution_value d).Obs.d_count > 0
        && (match (Obs.quantile d 0.5, Obs.quantile d 0.99) with
            | Some p50, Some p99 -> p50 > 0 && p99 >= p50
            | _ -> false)
    in
    record ok;
    Printf.printf "Obs histogram %-32s floor %s\n" name (verdict ok)
  in
  hist_floor "entry.td_count.count.wall_ns";
  hist_floor "entry.kwl.run_many.wall_ns";
  hist_floor "kwl.round_ns";
  (* snapshot pipeline: render/parse round-trips, and diffing a
     snapshot against itself reports zero regressions *)
  let snap = Snapshot.capture () in
  let roundtrip_ok =
    match Snapshot.parse (Snapshot.render snap) with
    | Ok _ -> true
    | Error _ -> false
  in
  record roundtrip_ok;
  Printf.printf "Obs snapshot OpenMetrics round-trip %s\n"
    (verdict roundtrip_ok);
  let _report, regs = Snapshot.diff snap snap in
  let selfdiff_ok = List.is_empty regs in
  record selfdiff_ok;
  Printf.printf "Obs obs-diff self-comparison: %d regressions %s\n"
    (List.length regs) (verdict selfdiff_ok);
  (* the armed journal must have recorded parseable events *)
  let jl = Obs.journal_jsonl () in
  let journal_ok =
    String.length jl > 0
    && List.for_all
         (fun line -> String.equal line "" || Obs.json_parseable line)
         (String.split_on_char '\n' jl)
  in
  record journal_ok;
  Printf.printf "Obs journal JSONL parseable (%d bytes) %s\n"
    (String.length jl) (verdict journal_ok);
  write_bench_json ~pr:8 "BENCH_PR8.json";
  Obs.set_tracing true;
  (* ---- PR9 acceptance: the content-addressed cache tier ---- *)
  (* mini-F8: one repeated workload run twice — tier disabled, then
     armed.  Counter snapshots of the two runs feed the obs-diff
     regression tripwire (the armed run must never do more engine work
     than the cold one), and the armed run must show a healthy hit
     rate, including hits on permuted-isomorphic resubmissions. *)
  let c5 = G.Builders.cycle 5 in
  let base20 = G.Gen.gnp (Prng.create 51) 20 0.3 in
  let perm_rng = Prng.create 53 in
  let rand_perm n =
    let p = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Prng.int perm_rng (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    p
  in
  let subs =
    base20 :: List.init 3 (fun _ -> G.Ops.relabel base20 (rand_perm 20))
  in
  let gd = G.Gen.gnp (Prng.create 57) 10 0.35 in
  let mini_f8 () =
    List.iter (fun g -> ignore (Wlcq_hom.Td_count.count c5 g)) subs;
    ignore (TW.Exact.optimal_decomposition gd);
    ignore (Wl_dimension.equivalent_cached 2 ge go)
  in
  let cval name =
    match Obs.find_counter name with
    | Some c -> Obs.counter_value c
    | None -> 0
  in
  Obs.reset ~keep_trace:true ();
  Cache.set_capacity_mb 0;
  mini_f8 ();
  let snap_off = Snapshot.capture () in
  Obs.reset ~keep_trace:true ();
  Cache.set_capacity_mb 256;
  Cache.clear ();
  mini_f8 ();
  (* the three extra submissions are permuted-isomorphic copies of the
     first: canonical addressing must turn them into hits on the very
     first pass *)
  let first_pass_hits = cval "cache.hit" in
  let perm_ok = first_pass_hits >= 3 in
  record perm_ok;
  Printf.printf "F8  permuted-isomorphic resubmission hits: %d (>= 3) %s\n"
    first_pass_hits (verdict perm_ok);
  mini_f8 ();
  let snap_on = Snapshot.capture () in
  let hits = cval "cache.hit" and misses = cval "cache.miss" in
  let rate =
    match Obs.report_hit_rate ~hits:"cache.hit" ~misses:"cache.miss" with
    | Some r -> r
    | None -> 0.0
  in
  let rate_ok = hits > 0 && misses > 0 && rate >= 0.5 in
  record rate_ok;
  Printf.printf "F8  cache hit rate %.2f (floor 0.50; %d hits, %d misses) %s\n"
    rate hits misses (verdict rate_ok);
  (* threshold 3.0, not the default 2.0: the histogram quantiles are
     bucketed, and one bucket of timing jitter on an identical
     computation is a 2x ratio; a real armed-path blowup clears 3x *)
  let _report, regs = Snapshot.diff ~threshold:3.0 snap_off snap_on in
  List.iter
    (fun r ->
       Printf.printf "  obs-diff regression: %s %s %.0f -> %.0f\n"
         r.Snapshot.r_metric r.Snapshot.r_what r.Snapshot.r_before
         r.Snapshot.r_after)
    regs;
  let diff_ok = List.is_empty regs in
  record diff_ok;
  Printf.printf "F8  obs-diff cold-vs-armed: %d regressions %s\n"
    (List.length regs) (verdict diff_ok);
  (* mini-F9: the daemon answers, contains a malformed request and
     drains cleanly — a per-runtest tripwire for the service tier (the
     full load/backpressure series is `main.exe F9`) *)
  let f9_ok =
    with_daemon ~tag:"smoke"
      (fun c -> { c with Serve.workers = 1 })
      (fun ~socket ->
        let req id op =
          { Wire.id; deadline_ms = None; max_live_mb = None; op }
        in
        match Sclient.connect ~socket () with
        | Error _ -> false
        | Ok c ->
          Fun.protect ~finally:(fun () -> Sclient.close c) (fun () ->
              let ok1 =
                match Sclient.request c (req "s1" Wire.Ping) with
                | Ok { Wire.r_status = Wire.Ok_; r_value; _ } ->
                  String.equal r_value "pong"
                | Ok _ | Error _ -> false
              in
              let ok2 =
                match
                  Sclient.request c
                    (req "s2" (Wire.Treewidth { graph = "nonsense:1" }))
                with
                | Ok { Wire.r_status = Wire.Error_; _ } -> true
                | Ok _ | Error _ -> false
              in
              let ok3 =
                match
                  Sclient.request c
                    (req "s3" (Wire.Treewidth { graph = "clique:4" }))
                with
                | Ok { Wire.r_status = Wire.Ok_; r_value; _ } ->
                  String.equal r_value "3"
                | Ok _ | Error _ -> false
              in
              ok1 && ok2 && ok3))
  in
  record f9_ok;
  Printf.printf
    "F9  daemon smoke: ping, contained error, treewidth, clean drain %s\n"
    (verdict f9_ok);
  (* the answer store: a relabelled resubmission of a 2-WL decide is
     answered by the cache tier, with the same verdict *)
  let spec_of g =
    String.concat " "
      ((string_of_int (G.Graph.num_vertices g) ^ ";")
       :: List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (G.Graph.edges g))
  in
  let relabelled g =
    let p = Array.init (G.Graph.num_vertices g) Fun.id in
    Prng.shuffle (Prng.create 61) p;
    spec_of (G.Ops.relabel g p)
  in
  let capacity = (Cache.stats ()).Cache.capacity_words in
  let obs_was = Obs.enabled () in
  Cache.set_capacity_mb 16;
  Obs.set_enabled true;
  let hits () = Obs.counter_value (Obs.counter "cache.hit") in
  let decide g1 g2 =
    Wlcq_serve.Exec.execute ~budget:Budget.unlimited
      { Wire.id = "d"; deadline_ms = None; max_live_mb = None;
        op = Wire.Decide { k = 2; g1; g2 } }
  in
  let g1 = G.Builders.shrikhande () and g2 = G.Builders.rook () in
  let first = decide (spec_of g1) (spec_of g2) in
  let h0 = hits () in
  let again = decide (relabelled g2) (relabelled g1) in
  let ok (r : Wire.response) =
    match r.Wire.r_status with Wire.Ok_ -> true | _ -> false
  in
  let store_ok =
    ok first && ok again
    && String.equal first.Wire.r_value again.Wire.r_value
    && hits () > h0
  in
  Obs.set_enabled obs_was;
  Cache.set_capacity_words capacity;
  record store_ok;
  Printf.printf "F9  relabelled 2-WL decide answered by the tier: %s %s\n"
    again.Wire.r_value (verdict store_ok);
  (* lint wall-time tripwire: the whole-tree interprocedural lint runs
     on every `dune runtest`, so a pathological slowdown (say the call
     graph going quadratic) would tax every build.  The 2 s ceiling is
     ~8x the calibration-machine wall time — loose enough for CI noise,
     tight enough to catch a complexity regression. *)
  (* the runtest rule runs from bench/, `dune exec` from wherever the
     user stands — probe for the tree relative to both *)
  let dir_exists p = Sys.file_exists p && Sys.is_directory p in
  (* same root set as the `@lint` alias: suppression pragmas are
     use-checked (R0), so linting a subset of the tree would flag as
     unused any pragma whose trigger lives in the omitted roots *)
  let lint_roots =
    List.filter dir_exists
      (if dir_exists "../lib" then
         [ "../lib"; "../bin"; "../bench"; "../test"; "../tools" ]
       else [ "lib"; "bin"; "bench"; "test"; "tools" ])
  in
  let lint_result, lint_t =
    wall_time_best (fun () -> Lint_engine.Engine.run ~roots:lint_roots ())
  in
  let files = lint_result.Lint_engine.Engine.files_scanned in
  let lint_ok =
    files > 0
    && List.is_empty lint_result.Lint_engine.Engine.findings
    && lint_t < 2.0
  in
  record lint_ok;
  Printf.printf "F6  whole-tree lint: %d files in %.1f ms (ceiling 2000) %s\n"
    files (lint_t *. 1e3) (verdict lint_ok);
  Printf.printf "\nmetrics after smoke run:\n%s" (Obs.metrics_table ())

let all_experiments =
  [ ("T1", t1); ("T2", t2); ("T3", t3); ("T4", t4); ("T5", t5); ("T6", t6);
    ("T7", t7); ("T8", t8); ("T9", t9); ("T10", t10); ("T11", t11);
    ("T12", t12); ("T13", t13); ("T14", t14); ("T15", t15);
    ("F1", f1); ("F1b", f1b); ("F2", f2); ("F3", f3); ("F4", f4); ("F5", f5);
    ("F8", f8); ("F9", f9); ("A1", ablation); ("calibrate", calibrate);
    ("timing-smoke", timing_smoke) ]

let () =
  let args =
    Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  in
  (* `--trace FILE` writes one Chrome trace_event JSON file covering
     the whole run; metrics reset per experiment, trace events don't *)
  let rec split_trace acc = function
    | [] -> (None, List.rev acc)
    | "--trace" :: file :: rest -> (Some file, List.rev_append acc rest)
    | [ "--trace" ] ->
      Printf.eprintf "error: --trace needs a FILE argument\n";
      exit 2
    | a :: rest -> split_trace (a :: acc) rest
  in
  let trace_file, args = split_trace [] args in
  Obs.set_enabled true;
  if Option.is_some trace_file then Obs.set_tracing true;
  let selected =
    match args with
    | [] -> List.map fst all_experiments
    | [ "tables" ] ->
      [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T7"; "T8"; "T9"; "T10"; "T11";
        "T12"; "T13"; "T14"; "T15" ]
    | [ "timing" ] -> [ "F1"; "F1b"; "F2"; "F3"; "F4"; "A1" ]
    | ids -> ids
  in
  List.iter
    (fun id ->
       match List.assoc_opt id all_experiments with
       | Some f ->
         f ();
         Printf.printf "\n--- %s engine metrics ---\n%s" id
           (Obs.metrics_table ());
         Obs.reset ~keep_trace:true ()
       | None ->
         Printf.eprintf "unknown experiment %s (known: %s)\n" id
           (String.concat " " (List.map fst all_experiments));
         exit 2)
    selected;
  (match trace_file with
   | None -> ()
   | Some file ->
     let oc = open_out file in
     output_string oc (Obs.trace_json ());
     close_out oc;
     Printf.printf "\ntrace written to %s\n" file);
  Printf.printf "\n==============================================\n";
  if !failures = 0 then
    Printf.printf "all experiment checks passed\n"
  else begin
    Printf.printf "%d experiment check(s) FAILED\n" !failures;
    exit 1
  end
