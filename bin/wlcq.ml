(* wlcq — command-line frontend for the WL-dimension library.

   Subcommands mirror the paper's objects: widths of a query, answer
   counting, WL-equivalence of graphs, CFI constructions, lower-bound
   witnesses, and dominating sets.

   Exit codes:
     0  success (for verdict commands: positive verdict)
     1  negative verdict / no distinguishing pattern / invalid certificate
     2  malformed input (query, graph or flag); the diagnostic is a
        single "error: <Module.fn: message>" line on stderr
     3  the --deadline-ms / --max-live-mb budget tripped; whatever was
        printed is a sound partial or degraded result *)

open Cmdliner
module G = Wlcq_graph
module Core = Wlcq_core
module Bigint = Wlcq_util.Bigint
module Budget = Wlcq_robust.Budget
module Outcome = Wlcq_robust.Outcome

let exit_malformed = 2
let exit_degraded = 3

let fail_malformed msg : 'a =
  Printf.eprintf "error: %s\n" msg;
  exit exit_malformed

let query_arg =
  let doc =
    "Conjunctive query, e.g. \"(x1, x2) := exists y . E(x1, y) & E(x2, y)\"."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

(* Graphs are taken as plain strings and parsed inside the command
   body so a malformed spec exits 2 with a structured "error:" line
   (cmdliner's own conversion errors exit 124). *)
let graph_opt name doc =
  Arg.(required & opt (some string) None & info [ name ] ~docv:"GRAPH" ~doc)

let parse_query s =
  match Core.Parser.parse s with Ok p -> p | Error e -> fail_malformed e

let parse_graph s =
  match G.Spec.parse s with Ok g -> g | Error e -> fail_malformed e

(* Engines report malformed input as [Invalid_argument]/[Failure] with
   "Module.fn: message" payloads (see DESIGN.md); a tripped budget
   escaping one of the raising [?budget] entry points is a degraded
   run.  Every subcommand body runs under this wrapper so neither
   surfaces as an uncaught exception. *)
let guarded f =
  try f () with
  | Invalid_argument msg | Failure msg -> fail_malformed msg
  | Budget.Exhausted r ->
    Printf.eprintf "exhausted: %s\n" (Budget.reason_to_string r);
    exit exit_degraded

(* ------------------------------------------------------------------ *)
(* Observability flags, shared by every subcommand                     *)
(* ------------------------------------------------------------------ *)

module Obs = Wlcq_obs.Obs
module Snapshot = Wlcq_obs.Snapshot

(* What [obs_setup] hands back to the few subcommands that keep
   running after setup ([wlcq serve] re-renders the snapshot and
   rotates the journal periodically instead of only at exit). *)
type obs_paths = {
  o_metrics_out : string option;
  o_journal : string option;
}

(* Reporting runs from [at_exit] so the subcommands' own [exit] calls
   (success/failure encodings, including the malformed-input exit 2 and
   the degraded exit 3) still flush metrics, snapshots, traces and the
   flight-recorder journal. *)
let obs_setup metrics trace metrics_out folded journal =
  if
    metrics || Option.is_some metrics_out || Option.is_some trace
    || Option.is_some folded
  then begin
    Obs.set_enabled true;
    if Option.is_some trace then Obs.set_tracing true;
    (* span allocation attribution rides along whenever the folded
       profile was requested: it is the exporter that consumes it *)
    if Option.is_some folded then Obs.set_alloc_profiling true;
    at_exit (fun () ->
        if metrics then prerr_string (Obs.metrics_table ());
        (match metrics_out with
         | None -> ()
         | Some file ->
           let oc = open_out file in
           output_string oc (Snapshot.render (Snapshot.capture ()));
           close_out oc);
        (match folded with
         | None -> ()
         | Some file ->
           let oc = open_out file in
           output_string oc (Obs.folded ());
           close_out oc);
        match trace with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          output_string oc (Obs.trace_json ());
          close_out oc)
  end;
  (match journal with
   | None -> ()
   | Some file ->
     Obs.set_journal true;
     Obs.set_journal_dump (Some file);
     (* budget trips and fault injections dump eagerly; this final dump
        covers clean runs and leaves the trip's trail untouched (it only
        appends the closing exit event) *)
     at_exit (fun () -> Obs.journal_dump ~trigger:"exit" ()));
  { o_metrics_out = metrics_out; o_journal = journal }

let obs_term =
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Record engine metrics (rounds, DP table sizes, cache hit \
                   rates, span timings) and print the table to stderr on \
                   exit.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON file of the engine spans \
                   to $(docv) on exit (load in chrome://tracing or \
                   Perfetto).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write an OpenMetrics text snapshot of all counters and \
                   histograms to $(docv) on exit (any exit code); compare \
                   two snapshots with $(b,wlcq obs-diff).")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write the span profile in collapsed-stack (folded) format \
                   to $(docv) on exit, with per-span allocation attribution \
                   enabled; feed it to flamegraph.pl, inferno or speedscope.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Arm the flight recorder and dump its JSONL event journal \
                   to $(docv) on exit; budget trips and injected faults \
                   rewrite the dump eagerly at the moment they fire.")
  in
  Term.(const obs_setup $ metrics $ trace $ metrics_out $ folded $ journal)

(* ------------------------------------------------------------------ *)
(* Cache flags, shared by every subcommand that computes               *)
(* ------------------------------------------------------------------ *)

let cache_setup cache_size_mb cache_load cache_save =
  (match cache_size_mb with
  | None -> ()
  | Some mb ->
    if mb < 0 then fail_malformed "--cache-size-mb must be >= 0";
    Wlcq_cache.Cache.set_capacity_mb mb);
  (match cache_load with
  | None -> ()
  | Some file -> (
    match Wlcq_cache.Cache.load_file file with
    | Ok _ -> ()
    | Error msg -> fail_malformed msg));
  match cache_save with
  | None -> ()
  | Some file ->
    (* saved from [at_exit] for the same reason the metrics are: the
       subcommands encode success/degradation in their exit codes *)
    at_exit (fun () -> ignore (Wlcq_cache.Cache.save_file file))

let cache_term =
  let cache_size_mb =
    Arg.(value & opt (some int) None
         & info [ "cache-size-mb" ] ~docv:"MB"
             ~doc:"Capacity of the content-addressed result cache \
                   (decompositions, k-WL verdicts, hom counts, pattern \
                   enumerations), in megabytes of live heap; default \
                   256.  $(b,0) disables the cache entirely.")
  in
  let cache_load =
    Arg.(value & opt (some string) None
         & info [ "cache-load" ] ~docv:"FILE"
             ~doc:"Warm-start the result cache from a snapshot written by \
                   $(b,--cache-save) before the run.")
  in
  let cache_save =
    Arg.(value & opt (some string) None
         & info [ "cache-save" ] ~docv:"FILE"
             ~doc:"Write the result cache to $(docv) on exit (any exit \
                   code), for $(b,--cache-load) warm starts.")
  in
  Term.(const cache_setup $ cache_size_mb $ cache_load $ cache_save)

(* ------------------------------------------------------------------ *)
(* Budget flags, shared by every subcommand                            *)
(* ------------------------------------------------------------------ *)

let budget_setup deadline_ms max_live_mb =
  match (deadline_ms, max_live_mb) with
  | None, None -> Budget.unlimited
  | _ -> (
    try Budget.create ?deadline_ms ?max_live_mb ()
    with Invalid_argument msg -> fail_malformed msg)

let budget_term =
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Wall-clock budget in milliseconds (monotonic clock).  \
                   When it trips, the command prints the best sound \
                   degraded or partial result it has and exits with \
                   code 3.")
  in
  let max_live_mb =
    Arg.(value & opt (some int) None
         & info [ "max-live-mb" ] ~docv:"MB"
             ~doc:"Live major-heap ceiling in MiB; exceeding it behaves \
                   like a missed deadline (exit code 3).")
  in
  Term.(const budget_setup $ deadline_ms $ max_live_mb)

(* [show_measure degraded to_string f] renders [f ()], or the trip that
   stopped it as "exhausted (reason)", setting [degraded]: for the
   exact measures, which have no sound partial result. *)
let show_measure degraded to_string f =
  match f () with
  | v -> to_string v
  | exception Budget.Exhausted r ->
    degraded := true;
    Printf.sprintf "exhausted (%s)" (Budget.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* wlcq widths                                                         *)
(* ------------------------------------------------------------------ *)

let widths_cmd =
  let run _ () budget query_str =
    guarded @@ fun () ->
    let p = parse_query query_str in
    let q = p.Core.Parser.query in
    let degraded = ref false in
    let show to_string f = show_measure degraded to_string f in
    Printf.printf "query:               %s\n"
      (Core.Parser.to_formula ~names:p.Core.Parser.names q);
    Printf.printf "variables:           %d free, %d quantified\n"
      (Core.Cq.num_free q)
      (Array.length (Core.Cq.quantified_vars q));
    Printf.printf "connected:           %b\n" (Core.Cq.is_connected q);
    (match Core.Minimize.counting_core ~budget q with
     | core ->
       let minimal =
         G.Graph.num_vertices core.Core.Cq.graph
         = G.Graph.num_vertices q.Core.Cq.graph
       in
       Printf.printf "counting minimal:    %b\n" minimal;
       if not minimal then
         Printf.printf "counting core:       %s\n" (Core.Parser.to_formula core)
     | exception Budget.Exhausted r ->
       degraded := true;
       Printf.printf "counting minimal:    exhausted (%s)\n"
         (Budget.reason_to_string r));
    (match Wlcq_treewidth.Exact.treewidth_budgeted ~budget q.Core.Cq.graph with
     | `Exact w -> Printf.printf "treewidth:           %d\n" w
     | `Degraded (w, r) ->
       degraded := true;
       Printf.printf "treewidth:           <= %d   (degraded: %s)\n" w
         (Outcome.reason_to_string r)
     | `Exhausted _ -> assert false (* treewidth_budgeted never exhausts *));
    Printf.printf "quantified star size:%d\n"
      (Core.Extension.quantified_star_size q);
    Printf.printf "extension width:     %s\n"
      (show string_of_int (fun () -> Core.Extension.extension_width ~budget q));
    Printf.printf "semantic ext. width: %s\n"
      (show string_of_int (fun () ->
           Core.Extension.semantic_extension_width ~budget q));
    (match Core.Wl_dimension.dimension_budgeted ~budget q with
     | `Exact d -> Printf.printf "WL-dimension:        %d   (Theorem 1)\n" d
     | `Degraded _ -> assert false (* dimension_budgeted never degrades *)
     | `Exhausted ((lo, hi), r) ->
       degraded := true;
       Printf.printf "WL-dimension:        in [%d, %d]   (exhausted: %s)\n" lo
         hi
         (Budget.reason_to_string r));
    if !degraded then exit exit_degraded
  in
  let doc = "Compute the width measures and WL-dimension of a query." in
  Cmd.v (Cmd.info "widths" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg)

(* ------------------------------------------------------------------ *)
(* wlcq ans                                                            *)
(* ------------------------------------------------------------------ *)

let ans_cmd =
  let run _ () budget query_str graph_str interpolate injective =
    guarded @@ fun () ->
    let p = parse_query query_str in
    let q = p.Core.Parser.query in
    let graph = parse_graph graph_str in
    if injective then
      Printf.printf "%s\n"
        (Bigint.to_string
           (Core.Quantum.count_injective_answers ~budget q graph))
    else if interpolate then
      Printf.printf "%s\n"
        (Bigint.to_string
           (Core.Wl_dimension.answers_via_interpolation ~budget q graph))
    else
      match Core.Fast_count.count_answers_budgeted ~budget q graph with
      | `Exact n -> Printf.printf "%s\n" (Bigint.to_string n)
      | `Degraded (n, r) ->
        Printf.printf "%s   (degraded: %s)\n" (Bigint.to_string n)
          (Outcome.reason_to_string r);
        exit exit_degraded
      | `Exhausted (partial, r) ->
        Printf.printf ">= %s   (exhausted: %s)\n" (Bigint.to_string partial)
          (Budget.reason_to_string r);
        exit exit_degraded
  in
  let interpolate =
    Arg.(value & flag
         & info [ "interpolate" ]
             ~doc:"Compute via the Lemma 22 / Observation 23 Vandermonde \
                   interpolation from homomorphism counts.")
  in
  let injective =
    Arg.(value & flag
         & info [ "injective" ]
             ~doc:"Count injective answers only (Corollary 68 expansion).")
  in
  let doc = "Count the answers of a query in a graph." in
  Cmd.v (Cmd.info "ans" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg
          $ graph_opt "graph" ("Data graph. " ^ G.Spec.describe)
          $ interpolate $ injective)

(* ------------------------------------------------------------------ *)
(* wlcq tw                                                             *)
(* ------------------------------------------------------------------ *)

let tw_cmd =
  let run _ () budget graph_str =
    guarded @@ fun () ->
    let graph = parse_graph graph_str in
    match Wlcq_treewidth.Exact.treewidth_budgeted ~budget graph with
    | `Exact w -> Printf.printf "%d\n" w
    | `Degraded (w, r) ->
      Printf.printf "<= %d   (degraded: %s)\n" w (Outcome.reason_to_string r);
      exit exit_degraded
    | `Exhausted _ -> assert false (* treewidth_budgeted never exhausts *)
  in
  let doc = "Compute the exact treewidth of a graph." in
  Cmd.v (Cmd.info "tw" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term
          $ graph_opt "graph" ("Graph. " ^ G.Spec.describe))

(* ------------------------------------------------------------------ *)
(* wlcq wl                                                             *)
(* ------------------------------------------------------------------ *)

let wl_cmd =
  let run _ () budget k g1 g2 =
    guarded @@ fun () ->
    let g1 = parse_graph g1 and g2 = parse_graph g2 in
    match Wlcq_wl.Equivalence.equivalent_budgeted ~budget k g1 g2 with
    | `Exact eq ->
      Printf.printf "%d-WL-equivalent: %b\n" k eq;
      if eq then exit 0 else exit 1
    | `Degraded (eq, r) ->
      Printf.printf "%d-WL-equivalent: %b   (degraded: %s)\n" k eq
        (Outcome.reason_to_string r);
      exit exit_degraded
    | `Exhausted r ->
      Printf.printf "%d-WL-equivalent: undecided   (exhausted: %s)\n" k
        (Budget.reason_to_string r);
      exit exit_degraded
  in
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"WL dimension (>= 1).") in
  let doc = "Test k-WL-equivalence of two graphs (Definition 19)." in
  Cmd.v (Cmd.info "wl" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ k
          $ graph_opt "g1" ("First graph. " ^ G.Spec.describe)
          $ graph_opt "g2" "Second graph.")

(* ------------------------------------------------------------------ *)
(* wlcq cfi                                                            *)
(* ------------------------------------------------------------------ *)

let cfi_cmd =
  let run _ () budget base_str check_k =
    guarded @@ fun () ->
    let base = parse_graph base_str in
    let degraded = ref false in
    let even, odd = Wlcq_cfi.Pairs.twisted_pair ~budget base in
    (match Wlcq_treewidth.Exact.treewidth_budgeted ~budget base with
     | `Exact w ->
       Printf.printf "base:  %d vertices, %d edges, treewidth %d\n"
         (G.Graph.num_vertices base) (G.Graph.num_edges base) w
     | `Degraded (w, r) ->
       degraded := true;
       Printf.printf "base:  %d vertices, %d edges, treewidth <= %d   (%s)\n"
         (G.Graph.num_vertices base) (G.Graph.num_edges base) w
         (Outcome.reason_to_string r)
     | `Exhausted _ -> assert false (* treewidth_budgeted never exhausts *));
    Printf.printf "chi(F, {}):  %d vertices, %d edges\n"
      (Wlcq_cfi.Cfi.num_vertices even)
      (G.Graph.num_edges even.Wlcq_cfi.Cfi.graph);
    Printf.printf "chi(F, {0}): %d vertices, %d edges\n"
      (Wlcq_cfi.Cfi.num_vertices odd)
      (G.Graph.num_edges odd.Wlcq_cfi.Cfi.graph);
    (match
       G.Iso.isomorphic ~budget even.Wlcq_cfi.Cfi.graph odd.Wlcq_cfi.Cfi.graph
     with
     | iso -> Printf.printf "isomorphic:  %b   (Lemma 26 predicts false)\n" iso
     | exception Budget.Exhausted r ->
       degraded := true;
       Printf.printf "isomorphic:  exhausted (%s)\n" (Budget.reason_to_string r));
    (match check_k with
     | None -> ()
     | Some k -> (
       match
         Wlcq_wl.Equivalence.equivalent_budgeted ~budget k
           even.Wlcq_cfi.Cfi.graph odd.Wlcq_cfi.Cfi.graph
       with
       | `Exact eq -> Printf.printf "%d-WL-equivalent: %b\n" k eq
       | `Degraded (eq, r) ->
         degraded := true;
         Printf.printf "%d-WL-equivalent: %b   (degraded: %s)\n" k eq
           (Outcome.reason_to_string r)
       | `Exhausted r ->
         degraded := true;
         Printf.printf "%d-WL-equivalent: undecided   (exhausted: %s)\n" k
           (Budget.reason_to_string r)));
    if !degraded then exit exit_degraded
  in
  let check_k =
    Arg.(value & opt (some int) None
         & info [ "check-wl" ]
             ~doc:"Also test k-WL-equivalence of the twisted pair.")
  in
  let doc = "Build the twisted CFI pair over a base graph (Definition 25)." in
  Cmd.v (Cmd.info "cfi" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term
          $ graph_opt "base" ("Base graph. " ^ G.Spec.describe)
          $ check_k)

(* ------------------------------------------------------------------ *)
(* wlcq witness                                                        *)
(* ------------------------------------------------------------------ *)

let witness_cmd =
  let run _ () budget query_str check_wl emit =
    guarded @@ fun () ->
    let p = parse_query query_str in
    let q = p.Core.Parser.query in
    let w = Core.Wl_dimension.lower_bound_witness ~budget q in
    let k =
      Wlcq_treewidth.Exact.treewidth w.Core.Wl_dimension.f.Core.Extension.graph
    in
    Printf.printf "core:        %s\n"
      (Core.Parser.to_formula w.Core.Wl_dimension.core);
    Printf.printf "ew = tw(F):  %d  (ell = %d)\n" k
      w.Core.Wl_dimension.f.Core.Extension.ell;
    Printf.printf "chi sizes:   %d / %d vertices\n"
      (Wlcq_cfi.Cfi.num_vertices w.Core.Wl_dimension.even)
      (Wlcq_cfi.Cfi.num_vertices w.Core.Wl_dimension.odd);
    let e, o = Core.Wl_dimension.ans_id_counts w in
    Printf.printf "Ans^id:      %d vs %d  (Lemma 57 predicts >)\n" e o;
    if check_wl && k >= 2 then
      Printf.printf "(k-1)-WL-equivalent: %b  (Lemma 35 predicts true)\n"
        (Core.Wl_dimension.witness_pair_equivalent w (k - 1));
    if emit then begin
      match Core.Wl_dimension.separating_pair ~max_z:2 q with
      | None -> Printf.printf "no separating pair found within the z-bound\n"
      | Some (g1, g2) ->
        Printf.printf "separating pair (graph6, |Ans| = %s vs %s):\n"
          (Bigint.to_string (Core.Fast_count.count_answers q g1))
          (Bigint.to_string (Core.Fast_count.count_answers q g2));
        Printf.printf "  %s\n  %s\n" (G.Graph6.encode g1) (G.Graph6.encode g2)
    end
  in
  let check_wl =
    Arg.(value & flag
         & info [ "check-wl" ]
             ~doc:"Verify the (k-1)-WL-equivalence of the witness pair.")
  in
  let emit =
    Arg.(value & flag
         & info [ "emit-g6" ]
             ~doc:"Print a plain-answer separating pair in graph6 format \
                   (Lemma 40 cloning).")
  in
  let doc =
    "Build and check the Section-4 lower-bound witness for a query."
  in
  Cmd.v (Cmd.info "witness" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg $ check_wl $ emit)

(* ------------------------------------------------------------------ *)
(* wlcq domsets                                                        *)
(* ------------------------------------------------------------------ *)

let domsets_cmd =
  let run _ () budget k graph_str via =
    guarded @@ fun () ->
    let graph = parse_graph graph_str in
    let count =
      match via with
      | "direct" -> Core.Domset.count_direct ~budget k graph
      | "quantum" -> Core.Domset.count_via_quantum ~budget k graph
      | other ->
        fail_malformed
          (Printf.sprintf "unknown method %S (direct|quantum)" other)
    in
    Printf.printf "%s\n" (Bigint.to_string count)
  in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Dominating-set size.") in
  let via =
    Arg.(value & opt string "direct"
         & info [ "via" ]
             ~doc:"Counting method: direct, or quantum (complement/star \
                   reduction, Corollary 68 expansion).")
  in
  let doc = "Count size-k dominating sets (Corollary 6)." in
  Cmd.v (Cmd.info "domsets" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ k
          $ graph_opt "graph" ("Graph. " ^ G.Spec.describe)
          $ via)

(* ------------------------------------------------------------------ *)
(* wlcq union                                                          *)
(* ------------------------------------------------------------------ *)

let union_cmd =
  let run _ () budget union_str graph_str =
    guarded @@ fun () ->
    match Core.Ucq.of_string union_str with
    | Error e -> fail_malformed e
    | Ok u ->
      Printf.printf "disjuncts:     %d\n" (List.length (Core.Ucq.disjuncts u));
      List.iter
        (fun q -> Printf.printf "  %s\n" (Core.Parser.to_formula q))
        (Core.Ucq.disjuncts u);
      let quantum = Core.Ucq.to_quantum u in
      Printf.printf "quantum terms: %d\n"
        (List.length (Core.Quantum.terms quantum));
      Printf.printf "WL-dimension:  %d   (hsew, Corollary 5)\n"
        (Core.Ucq.wl_dimension u);
      (match graph_str with
       | None -> ()
       | Some s ->
         let g = parse_graph s in
         Printf.printf "answers:       %s\n"
           (Bigint.to_string (Core.Ucq.count_answers ~budget u g)))
  in
  let graph =
    Arg.(value & opt (some string) None
         & info [ "graph" ] ~docv:"GRAPH"
             ~doc:("Optionally count the union's answers in this graph. "
                   ^ G.Spec.describe))
  in
  let doc =
    "Analyse a union of conjunctive queries, e.g. \"(x1, x2) := E(x1, x2) | \
     exists y . E(x1, y) & E(y, x2)\"."
  in
  Cmd.v (Cmd.info "union" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg $ graph)

(* ------------------------------------------------------------------ *)
(* wlcq kg-widths / kg-ans                                             *)
(* ------------------------------------------------------------------ *)

let parse_kg_query s =
  match Wlcq_kg.Kparser.parse s with Ok p -> p | Error e -> fail_malformed e

let kg_widths_cmd =
  let run _ () budget query_str =
    guarded @@ fun () ->
    let p = parse_kg_query query_str in
    let q = p.Wlcq_kg.Kparser.query in
    let degraded = ref false in
    let show to_string f = show_measure degraded to_string f in
    Printf.printf "query:               %s\n" (Wlcq_kg.Kparser.to_formula p);
    let connected = Wlcq_kg.Kcq.is_connected q in
    Printf.printf "connected:           %b\n" connected;
    Printf.printf "counting minimal:    %s\n"
      (show string_of_bool (fun () ->
           Wlcq_kg.Kcq.is_counting_minimal ~budget q));
    Printf.printf "extension width:     %s\n"
      (show string_of_int (fun () -> Wlcq_kg.Kcq.extension_width ~budget q));
    Printf.printf "semantic ext. width: %s\n"
      (show string_of_int (fun () ->
           Wlcq_kg.Kcq.semantic_extension_width ~budget q));
    Printf.printf "WL-dimension:        %s\n"
      (if connected && Wlcq_kg.Kcq.num_free q > 0 then
         show string_of_int (fun () -> Wlcq_kg.Kcq.wl_dimension ~budget q)
       else "n/a (connected queries with a free variable only)");
    if !degraded then exit exit_degraded
  in
  let doc =
    "Width measures of a knowledge-graph query, e.g. \"(x, y) := exists z . \
     knows(x, z) & worksAt(z, y) & Person(x)\"."
  in
  Cmd.v (Cmd.info "kg-widths" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg)

let kg_ans_cmd =
  let run _ () budget query_str graph_str =
    guarded @@ fun () ->
    let p = parse_kg_query query_str in
    match Wlcq_kg.Kspec.parse graph_str with
    | Error e -> fail_malformed e
    | Ok g ->
      Printf.printf "%d\n"
        (Wlcq_kg.Kcq.count_answers ~budget p.Wlcq_kg.Kparser.query g)
  in
  let graph =
    Arg.(required & opt (some string) None
         & info [ "graph" ] ~docv:"KGRAPH"
             ~doc:("Data knowledge graph. " ^ Wlcq_kg.Kspec.describe))
  in
  let doc =
    "Count the answers of a knowledge-graph query.  Relation/label ids in \
     the query are assigned in order of first use; make the data spec use \
     the same ids."
  in
  Cmd.v (Cmd.info "kg-ans" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg $ graph)

(* ------------------------------------------------------------------ *)
(* wlcq certify                                                        *)
(* ------------------------------------------------------------------ *)

let certify_cmd =
  let run _ () _budget query_str sample_str =
    guarded @@ fun () ->
    let p = parse_query query_str in
    let sample = Option.map parse_graph sample_str in
    let c = Core.Certificate.certify ?sample p.Core.Parser.query in
    Format.printf "%a@." Core.Certificate.pp c;
    if Core.Certificate.is_valid c then begin
      Format.printf "@.certificate re-checked: VALID@.";
      exit 0
    end
    else begin
      Format.printf "@.certificate re-checked: INVALID@.";
      exit 1
    end
  in
  let sample =
    Arg.(value & opt (some string) None
         & info [ "sample" ] ~docv:"GRAPH"
             ~doc:("Sample graph for the upper-bound demonstration \
                    (default: C5). " ^ G.Spec.describe))
  in
  let doc =
    "Produce and re-check a full Theorem 1 certificate for a query: upper \
     bound by interpolation, lower bound by the Section-4 CFI witness."
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term $ query_arg $ sample)

(* ------------------------------------------------------------------ *)
(* wlcq invariants                                                     *)
(* ------------------------------------------------------------------ *)

(* No budget flags: the built-in library is fixed and runs in tens of
   milliseconds, so there is nothing for a deadline to cut short. *)
let invariants_cmd =
  let run _ () () =
    guarded @@ fun () ->
    Printf.printf "%-16s %-22s %s\n" "parameter" "dimension lower bound"
      "witness pair";
    List.iter
      (fun p ->
         match Core.Invariant.dimension_lower_bound p with
         | None ->
           Printf.printf "%-16s %-22s %s\n" p.Core.Invariant.name
             ">= 1 (no separation)" "-"
         | Some (k, pair) ->
           Printf.printf "%-16s %-22s %s\n" p.Core.Invariant.name
             (Printf.sprintf ">= %d" k) pair)
      (Core.Invariant.standard_library ())
  in
  let doc =
    "Survey WL-dimension lower bounds of standard graph parameters against \
     the built-in witness-pair library."
  in
  Cmd.v (Cmd.info "invariants" ~doc)
    Term.(const run $ obs_term $ cache_term $ const ())

(* ------------------------------------------------------------------ *)
(* wlcq profile                                                        *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let run _ () budget g1 g2 max_size tw_bound =
    guarded @@ fun () ->
    let g1 = parse_graph g1 and g2 = parse_graph g2 in
    match
      Wlcq_wl.Hom_profile.first_difference ~budget ~max_size ~tw_bound g1 g2
    with
    | None ->
      Printf.printf
        "no distinguishing pattern with <= %d vertices and treewidth <= %d\n"
        max_size tw_bound;
      exit 1
    | Some (pattern, c1, c2) ->
      Printf.printf "smallest distinguishing pattern: %s  (graph6: %s)\n"
        (G.Graph.to_string pattern)
        (G.Graph6.encode pattern);
      Printf.printf "hom counts: %s vs %s\n" (Bigint.to_string c1)
        (Bigint.to_string c2)
  in
  let max_size =
    Arg.(value & opt int 5
         & info [ "max-size" ] ~doc:"Largest pattern size to try.")
  in
  let tw_bound =
    Arg.(value & opt int 3
         & info [ "tw" ] ~doc:"Treewidth bound on the patterns.")
  in
  let doc =
    "Find the smallest connected pattern whose homomorphism counts \
     distinguish two graphs (Definition 19 made concrete)."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ obs_term $ cache_term $ budget_term
          $ graph_opt "g1" ("First graph. " ^ G.Spec.describe)
          $ graph_opt "g2" "Second graph."
          $ max_size $ tw_bound)

(* ------------------------------------------------------------------ *)
(* wlcq serve                                                          *)
(* ------------------------------------------------------------------ *)

module Server = Wlcq_serve.Server
module Client = Wlcq_serve.Client
module Wire = Wlcq_serve.Wire
module Fault = Wlcq_robust.Fault

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path the daemon binds (serve) or \
                 connects to (call).")

let serve_cmd =
  let run obs () socket workers max_sessions max_queue max_queue_per_client
      max_deadline_ms default_deadline_ms max_live_mb idle_timeout_s
      write_timeout_s drain_timeout_s flush_interval_s fault_seed fault_rate
      fault_sites =
    guarded @@ fun () ->
    (* a zero cap on either deadline flag means "no cap at all" *)
    let opt_ms v = if v > 0.0 then Some v else None in
    (match fault_seed with
     | None -> ()
     | Some seed ->
       let sites =
         match fault_sites with
         | [] -> None
         | names ->
           Some
             (List.map
                (fun n ->
                   match Fault.site_of_string n with
                   | Some s -> s
                   | None ->
                     fail_malformed
                       (Printf.sprintf "serve: unknown fault site %S" n))
                names)
       in
       Fault.arm ~seed ?rate:fault_rate ?sites ());
    let cfg =
      { (Server.default_config ~socket_path:socket) with
        Server.workers; max_sessions; max_queue; max_queue_per_client;
        max_deadline_ms = opt_ms max_deadline_ms;
        default_deadline_ms = opt_ms default_deadline_ms;
        max_live_mb; idle_timeout_s; write_timeout_s; drain_timeout_s;
        flush_interval_s;
        metrics_out = obs.o_metrics_out;
        journal_path = obs.o_journal }
    in
    let t = Server.create cfg in
    let stop _ = Server.shutdown t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (try
       Sys.set_signal Sys.sighup
         (Sys.Signal_handle (fun _ -> Server.request_flush t))
     with Invalid_argument _ -> ());
    Server.run t;
    exit 0
  in
  let pos_int ~default name doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let pos_float ~default name doc =
    Arg.(value & opt float default & info [ name ] ~docv:"S" ~doc)
  in
  let workers = pos_int ~default:2 "workers" "Worker domains executing requests." in
  let max_sessions =
    pos_int ~default:128 "max-sessions"
      "Concurrent client connections; over it, new connections get an \
       immediate $(b,overloaded) reply."
  in
  let max_queue =
    pos_int ~default:256 "max-queue"
      "Total queued-request admission cap; over it, requests are shed \
       with $(b,overloaded) and a retry-after hint."
  in
  let max_queue_per_client =
    pos_int ~default:32 "max-queue-per-client"
      "Queued-request cap per connection (fairness against one chatty \
       client)."
  in
  let max_deadline_ms =
    pos_float ~default:30000.0 "max-deadline-ms"
      "Server-side cap in milliseconds: client deadlines are clamped \
       to it.  $(b,0) removes the cap."
  in
  let default_deadline_ms =
    pos_float ~default:5000.0 "default-deadline-ms"
      "Deadline applied when a request carries none.  $(b,0) means \
       unlimited."
  in
  let max_live_mb =
    Arg.(value & opt (some int) None
         & info [ "max-live-mb" ] ~docv:"MB"
             ~doc:"Live-heap ceiling cap per request, clamping client \
                   requests (shared with the one-shot commands' flag).")
  in
  let idle_timeout_s =
    pos_float ~default:60.0 "idle-timeout-s"
      "Sessions quiet for this long are reaped."
  in
  let write_timeout_s =
    pos_float ~default:5.0 "write-timeout-s"
      "A client not draining its responses for this long is reaped."
  in
  let drain_timeout_s =
    pos_float ~default:5.0 "drain-timeout-s"
      "SIGTERM grace period before in-flight budgets are cancelled."
  in
  let flush_interval_s =
    pos_float ~default:10.0 "flush-interval-s"
      "Seconds between periodic sink flushes (snapshot re-render, \
       journal rotation); $(b,0) disables them.  SIGHUP forces one."
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ] ~docv:"SEED"
             ~doc:"Test only: arm deterministic fault injection with \
                   this seed before serving.")
  in
  let fault_rate =
    Arg.(value & opt (some float) None
         & info [ "fault-rate" ] ~docv:"P"
             ~doc:"Test only: per-draw failure probability in [0,1] \
                   (default 1 when --fault-seed is given).")
  in
  let fault_sites =
    Arg.(value & opt (list string) []
         & info [ "fault-sites" ] ~docv:"SITES"
             ~doc:"Test only: comma-separated fault sites to arm \
                   (accept_fail, read_stall, write_stall, worker_raise, \
                   deadline_check, domain_spawn, dp_alloc); default all.")
  in
  let doc =
    "Serve decide/count/treewidth requests over a Unix-domain socket: a \
     fault-contained, backpressured multi-client daemon.  SIGTERM or \
     SIGINT starts a graceful drain (stop accepting, answer queued \
     work, flush sinks, exit 0); SIGHUP forces a sink flush."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ obs_term $ cache_term $ socket_arg $ workers $ max_sessions
          $ max_queue $ max_queue_per_client $ max_deadline_ms
          $ default_deadline_ms $ max_live_mb $ idle_timeout_s
          $ write_timeout_s $ drain_timeout_s $ flush_interval_s
          $ fault_seed $ fault_rate $ fault_sites)

(* ------------------------------------------------------------------ *)
(* wlcq call                                                           *)
(* ------------------------------------------------------------------ *)

let exit_unavailable = 4

let call_cmd =
  let run _obs deadline_ms max_live_mb socket timeout_s id verb k g1 g2
      queries graph =
    guarded @@ fun () ->
    let need flag = function
      | Some v -> v
      | None ->
        fail_malformed (Printf.sprintf "call: %s requires %s" verb flag)
    in
    let op =
      match verb with
      | "ping" -> Wire.Ping
      | "decide" ->
        Wire.Decide { k; g1 = need "--g1" g1; g2 = need "--g2" g2 }
      | "count" -> (
        match queries with
        | [ query ] -> Wire.Count { query; graph = need "--graph" graph }
        | _ -> fail_malformed "call: count takes exactly one --query")
      | "count-batch" ->
        if List.length queries = 0 then
          fail_malformed "call: count-batch needs at least one --query";
        Wire.Count_batch { queries; graph = need "--graph" graph }
      | "treewidth" -> Wire.Treewidth { graph = need "--graph" graph }
      | v -> fail_malformed (Printf.sprintf "call: unknown verb %S" v)
    in
    let req = { Wire.id; deadline_ms; max_live_mb; op } in
    match Client.call ~timeout_s ~socket req with
    | Error msg -> fail_malformed ("call: " ^ msg)
    | Ok resp -> (
      (match resp.Wire.r_status with
       | Wire.Ok_ -> Printf.printf "%s\n" resp.Wire.r_value
       | Wire.Degraded ->
         Printf.printf "%s   (degraded: %s)\n" resp.Wire.r_value
           resp.Wire.r_detail
       | Wire.Exhausted ->
         Printf.eprintf "exhausted: %s\n" resp.Wire.r_detail
       | Wire.Error_ -> Printf.eprintf "error: %s\n" resp.Wire.r_detail
       | Wire.Overloaded ->
         Printf.eprintf "overloaded%s\n"
           (match resp.Wire.r_retry_after_ms with
            | Some ms -> Printf.sprintf ": retry after %dms" ms
            | None -> "")
       | Wire.Draining -> Printf.eprintf "draining: daemon is shutting down\n");
      match resp.Wire.r_status with
      | Wire.Ok_ -> exit 0
      | Wire.Degraded | Wire.Exhausted -> exit exit_degraded
      | Wire.Error_ -> exit exit_malformed
      | Wire.Overloaded | Wire.Draining -> exit exit_unavailable)
  in
  (* the familiar budget flags, but forwarded on the wire: the daemon
     clamps them against its own caps and enforces them server-side *)
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Request deadline, clamped by the daemon's \
                   --max-deadline-ms cap.")
  in
  let max_live_mb =
    Arg.(value & opt (some int) None
         & info [ "max-live-mb" ] ~docv:"MB"
             ~doc:"Request heap ceiling, clamped by the daemon's cap.")
  in
  let timeout_s =
    Arg.(value & opt float 10.0
         & info [ "timeout-s" ] ~docv:"S"
             ~doc:"Client-side timeout for connect/send/receive.")
  in
  let id =
    Arg.(value & opt string ""
         & info [ "id" ] ~docv:"ID"
             ~doc:"Correlation id echoed in the reply.")
  in
  let verb =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"VERB"
             ~doc:"One of $(b,ping), $(b,decide), $(b,count), \
                   $(b,count-batch), $(b,treewidth).")
  in
  let k =
    Arg.(value & opt int 1
         & info [ "k" ] ~docv:"K" ~doc:"WL dimension for $(b,decide).")
  in
  let g1 =
    Arg.(value & opt (some string) None
         & info [ "g1" ] ~docv:"GRAPH" ~doc:"First graph for $(b,decide).")
  in
  let g2 =
    Arg.(value & opt (some string) None
         & info [ "g2" ] ~docv:"GRAPH" ~doc:"Second graph for $(b,decide).")
  in
  let queries =
    Arg.(value & opt_all string []
         & info [ "query" ] ~docv:"QUERY"
             ~doc:"Conjunctive query; repeatable for $(b,count-batch).")
  in
  let graph =
    Arg.(value & opt (some string) None
         & info [ "graph" ] ~docv:"GRAPH"
             ~doc:"Graph for $(b,count)/$(b,count-batch)/$(b,treewidth).")
  in
  let doc =
    "Send one request to a running $(b,wlcq serve) daemon.  Exit codes: \
     0 ok, 3 degraded/exhausted, 2 error, 4 overloaded or draining."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(const run $ obs_term $ deadline_ms $ max_live_mb $ socket_arg
          $ timeout_s $ id $ verb $ k $ g1 $ g2 $ queries $ graph)

(* ------------------------------------------------------------------ *)
(* wlcq obs-diff                                                       *)
(* ------------------------------------------------------------------ *)

let obs_diff_cmd =
  let load file =
    let text =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg -> fail_malformed ("obs-diff: " ^ msg)
    in
    match Snapshot.parse text with
    | Ok snap -> snap
    | Error msg -> fail_malformed (Printf.sprintf "obs-diff: %s: %s" file msg)
  in
  let run before after threshold rate =
    if not (threshold > 1.0) then
      fail_malformed "obs-diff: --threshold must be > 1";
    let report, regressions =
      Snapshot.diff ~threshold ~rate (load before) (load after)
    in
    print_string report;
    match regressions with
    | [] ->
      print_string "no regressions\n";
      exit 0
    | _ :: _ ->
      Printf.printf "%d regression(s) at threshold x%.2f\n"
        (List.length regressions) threshold;
      exit 1
  in
  let before =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BEFORE"
             ~doc:"Baseline OpenMetrics snapshot (from --metrics-out).")
  in
  let after =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"AFTER" ~doc:"Candidate OpenMetrics snapshot.")
  in
  let threshold =
    Arg.(value & opt float 2.0
         & info [ "threshold" ] ~docv:"RATIO"
             ~doc:"Regression ratio: a counter delta or histogram \
                   p50/p99 growing by at least this factor (above the \
                   built-in noise floors) is a regression.  Exit code 1 \
                   when any is found, 0 otherwise.")
  in
  let rate =
    Arg.(value & flag
         & info [ "rate" ]
             ~doc:"Compare counters as events per second (each divided \
                   by its snapshot's wlcq_process_uptime_ns), so two \
                   snapshots taken from two still-running daemons with \
                   different uptimes diff meaningfully.")
  in
  let doc =
    "Diff two OpenMetrics snapshots written by --metrics-out and flag \
     thresholded counter/latency regressions."
  in
  Cmd.v (Cmd.info "obs-diff" ~doc)
    Term.(const run $ before $ after $ threshold $ rate)

let main =
  let doc =
    "The Weisfeiler-Leman dimension of conjunctive queries (PODS 2024)"
  in
  Cmd.group (Cmd.info "wlcq" ~version:"1.0.0" ~doc)
    [ widths_cmd; ans_cmd; tw_cmd; wl_cmd; cfi_cmd; witness_cmd; domsets_cmd;
      union_cmd; kg_widths_cmd; kg_ans_cmd; invariants_cmd; profile_cmd;
      certify_cmd; obs_diff_cmd; serve_cmd; call_cmd ]

let () = exit (Cmd.eval main)
