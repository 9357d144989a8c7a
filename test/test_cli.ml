(* Binary regression tests for bin/wlcq: the exit-code contract
   (0 success / positive verdict, 1 negative verdict, 2 malformed
   input, 3 budget exhausted) and the [error:] convention on stderr.

   The dune stanza declares the binary as a dependency; tests run from
   the build directory, so the executable sits at [../bin/wlcq.exe]. *)

let wlcq = "../bin/wlcq.exe"

let run_capture args =
  let err = Filename.temp_file "wlcq_test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s" wlcq args (Filename.quote err))
  in
  let ic = open_in err in
  let n = in_channel_length ic in
  let stderr_text = really_input_string ic n in
  close_in ic;
  Sys.remove err;
  (code, stderr_text)

let check_code name expected args =
  let code, _ = run_capture args in
  Alcotest.(check int) (name ^ ": exit code") expected code

let check_malformed name args =
  let code, stderr_text = run_capture args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  Alcotest.(check bool)
    (name ^ ": stderr starts with 'error: '")
    true
    (String.length stderr_text >= 7 && String.equal (String.sub stderr_text 0 7) "error: ")

let q_star = "\"(x1, x2) := exists y . E(x1, y) & E(x2, y)\""

let test_success_codes () =
  check_code "tw on K4" 0 "tw --graph clique:4";
  check_code "ans star query on K4" 0 (Printf.sprintf "ans %s --graph clique:4" q_star);
  check_code "widths" 0 (Printf.sprintf "widths %s" q_star);
  check_code "wl equivalent" 0 "wl -k 2 --g1 cycle:5 --g2 cycle:5"

let test_negative_verdict () =
  (* C6 vs 2K3 are distinguished by 2-WL: negative verdict, exit 1 *)
  check_code "wl inequivalent" 1 "wl -k 2 --g1 cycle:6 --g2 twotriangles"

let test_malformed_inputs () =
  check_malformed "bad graph spec" "tw --graph zzz";
  check_malformed "bad graph spec for ans"
    (Printf.sprintf "ans %s --graph zzz" q_star);
  check_malformed "bad query" "ans \"garbage query\" --graph clique:3";
  check_malformed "bad union query" "union \"garbage\"";
  check_malformed "negative deadline" "tw --graph clique:4 --deadline-ms=-3";
  check_malformed "zero memory ceiling" "tw --graph clique:4 --max-live-mb=0";
  check_malformed "bad kgraph" "kg-ans \"(x) := E0(x, y)\" --graph zzz";
  (* the star reduction over enumerated injective answers is a test
     oracle, not a shipped route *)
  let code, stderr_text =
    run_capture "domsets -k 2 --graph cycle:5 --via stars"
  in
  Alcotest.(check int) "domsets via stars: exit code" 2 code;
  Alcotest.(check string) "domsets via stars: unknown method"
    "error: unknown method \"stars\" (direct|quantum)\n" stderr_text;
  (* a tuple space the heap cannot serve (40^9 9-tuples) is a request
     too large to run: Kwl reports it on the error line instead of
     letting Out_of_memory escape as an uncaught exception (exit 125) *)
  let code, stderr_text = run_capture "wl -k 9 --g1 clique:40 --g2 clique:40" in
  Alcotest.(check int) "unallocatable k-WL: exit code" 2 code;
  Alcotest.(check bool) "unallocatable k-WL: error names Kwl" true
    (String.length stderr_text >= 11
     && String.equal (String.sub stderr_text 0 11) "error: Kwl.")

let test_budget_exhaustion () =
  (* a 1 ms deadline cannot finish branch and bound on a dense
     28-vertex graph: the CLI must report the degraded bound and
     exit 3 *)
  check_code "tw degrades under 1 ms" 3 "tw --graph gnp:28,0.5,7 --deadline-ms 1";
  check_code "ans exhausts under tiny deadline" 3
    (Printf.sprintf "ans %s --graph clique:32 --deadline-ms 0.05" q_star);
  (* generous deadlines change nothing *)
  check_code "tw with slack deadline" 0
    "tw --graph cycle:8 --deadline-ms 10000"

(* [wlcq ans] counts with the Corollary 4 DP in exact big integers:
   instances whose |V(G)|^|X| enumeration cannot finish, and a count
   past max_int *)
let run_stdout args =
  let out = Filename.temp_file "wlcq_test" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>/dev/null" wlcq args (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, String.trim text)

(* x0 - y0 - x1 - y1 - ... - y(k-2) - x(k-1): consecutive free
   variables share an existential neighbour *)
let quantified_path k =
  let atoms =
    List.init (k - 1) (fun i ->
        Printf.sprintf "E(x%d,y%d) & E(y%d,x%d)" i i i (i + 1))
  in
  Printf.sprintf "\"(%s) := exists %s . %s\""
    (String.concat ", " (List.init k (Printf.sprintf "x%d")))
    (String.concat " " (List.init (k - 1) (Printf.sprintf "y%d")))
    (String.concat " & " atoms)

let check_ans name args expected =
  let code, out = run_stdout args in
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  Alcotest.(check string) (name ^ ": count") expected out

let test_ans_past_enumeration () =
  check_ans "path3 on a 200-cycle"
    (Printf.sprintf "ans %s --graph cycle:200 --deadline-ms 5000"
       (quantified_path 3))
    "1800"

let test_ans_big_count () =
  (* every 10-tuple of a 100-clique is an answer: 10^20 > max_int *)
  check_ans "10-free path on a 100-clique"
    (Printf.sprintf "ans %s --graph clique:100 --deadline-ms 5000"
       (quantified_path 10))
    "100000000000000000000"

(* star3 (treewidth 1, sew 3): the projection-row kernel counts it in
   milliseconds where backtracking over all 3-tuples takes seconds *)
let q_star3 = "\"(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y)\""

let test_ans_star3 () =
  check_ans "star3 on a 200-cycle"
    (Printf.sprintf "ans %s --graph cycle:200 --deadline-ms 500" q_star3)
    "1400";
  check_ans "star3 on a dense G(80, 0.9)"
    (Printf.sprintf "ans %s --graph gnp:80,0.9,1 --deadline-ms 500" q_star3)
    "512000"

(* [--injective] is the Möbius sum over identifications of the free
   variables, each term counted by the Corollary 4 DP: milliseconds
   where enumerating the |V(G)|^|X| assignments takes seconds, and the
   enumeration's values on the queries the quantum expansion itself
   excludes (disconnected, an isolated free variable, boolean) *)
let test_ans_injective () =
  check_ans "injective 3-free path on a 200-cycle"
    "ans \"(x1, x2, x3) := exists y z . E(x1, y) & E(y, x2) & E(x2, z) & \
     E(z, x3)\" --graph cycle:200 --injective --deadline-ms 2000"
    "400";
  check_ans "injective 4-star on G(40, 0.3)"
    "ans \"(x1, x2, x3, x4) := exists y . E(x1, y) & E(x2, y) & E(x3, y) & \
     E(x4, y)\" --graph gnp:40,0.3,1 --injective --deadline-ms 2000"
    "779496";
  check_ans "injective disconnected"
    "ans \"(x1, x2) := exists y1 y2 . E(x1, y1) & E(x2, y2)\" --graph cycle:5 \
     --injective"
    "20";
  check_ans "injective with an isolated free variable"
    "ans \"(x1, x2, x3) := E(x1, x2)\" --graph petersen --injective" "240";
  check_ans "injective boolean"
    "ans \"() := exists y z . E(y, z)\" --graph cycle:5 --injective" "1"

(* the quantum counts of [domsets --via quantum], [union --graph] and
   [ans --injective] have no sound partial: a 1 ms deadline stops them
   promptly with the trip reason and exit 3, also where the Möbius sum
   has Bell(12) = 4,213,597 terms *)
let check_prompt_trip name args =
  let t0 = Unix.gettimeofday () in
  let code, stderr_text = run_capture args in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check int) (name ^ ": exit code") 3 code;
  Alcotest.(check string) (name ^ ": trip reason") "exhausted: deadline\n"
    stderr_text;
  Alcotest.(check bool)
    (Printf.sprintf "%s: answers within 100 ms (took %.1f)" name ms)
    true (ms <= 100.0)

let test_quantum_counts_deadline () =
  check_prompt_trip "domsets via quantum"
    "domsets -k 3 --graph cycle:80 --via quantum --deadline-ms 1";
  check_prompt_trip "union count"
    "union \"(x1, x2, x3) := exists y . E(x1, y) & E(x2, y) & E(x3, y) | \
     E(x1, x2) & E(x2, x3)\" --graph gnp:150,0.5,1 --deadline-ms 1";
  let xs = List.init 12 (fun i -> Printf.sprintf "x%d" (i + 1)) in
  check_prompt_trip "injective 12-star"
    (Printf.sprintf "ans \"(%s) := exists y . %s\" --graph cycle:20 \
                     --injective --deadline-ms 1"
       (String.concat ", " xs)
       (String.concat " & " (List.map (Printf.sprintf "E(%s, y)") xs)))

(* the heuristic bracket before the branch and bound polls its budget:
   a 1 ms deadline on a dense 400-vertex graph answers promptly with a
   labelled upper bound *)
let test_tw_bracket_deadline () =
  let t0 = Unix.gettimeofday () in
  let code, out = run_stdout "tw --graph gnp:400,0.5,1 --deadline-ms 1" in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check int) "tw bracket under 1 ms: exit code" 3 code;
  Alcotest.(check bool) "tw bracket under 1 ms: labelled bound" true
    (String.length out >= 3 && String.equal (String.sub out 0 3) "<= ");
  Alcotest.(check bool)
    (Printf.sprintf "tw bracket under 1 ms: answers within 100 ms (took %.1f)"
       ms)
    true (ms <= 100.0)

(* ---- PR 8: metrics exposition and offline diffing ---------------- *)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file text =
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text)

let contains needle s =
  let n = String.length needle and h = String.length s in
  let rec go i =
    i + n <= h && (String.equal (String.sub s i n) needle || go (i + 1))
  in
  go 0

(* [cfi] decides Lemma 26 on the twisted pair with the
   individualisation–refinement search, which polls the command's
   budget once per node: grid 3x3 answers at once, and the 5x5 grid's
   pair (about 5 s unbudgeted) stops at a 1 ms deadline *)
let test_cfi_budget () =
  let timed args =
    let t0 = Unix.gettimeofday () in
    let code, out = run_stdout args in
    (code, out, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let code, out, ms = timed "cfi --base grid:3,3" in
  Alcotest.(check int) "grid 3x3: exit code" 0 code;
  Alcotest.(check bool) "grid 3x3: not isomorphic" true
    (contains "isomorphic:  false" out);
  Alcotest.(check bool)
    (Printf.sprintf "grid 3x3: answers within 5 s (took %.1f ms)" ms)
    true (ms <= 5000.0);
  List.iter
    (fun (name, args, line) ->
       let code, out, ms = timed args in
       Alcotest.(check int) (name ^ ": exit code") 3 code;
       Alcotest.(check bool) (name ^ ": labelled") true (contains line out);
       Alcotest.(check bool)
         (Printf.sprintf "%s: answers within 100 ms (took %.1f)" name ms)
         true (ms <= 100.0))
    [ ("grid 5x5 under 1 ms", "cfi --base grid:5,5 --deadline-ms 1",
       "isomorphic:  exhausted (deadline)");
      ("K5 under 1 ms", "cfi --base clique:5 --check-wl 2 --deadline-ms 1",
       "2-WL-equivalent: undecided   (exhausted: deadline)") ]

(* kg-widths: with every variable free the counting core is the query
   itself, and each exact measure is the treewidth of the underlying
   graph, here the edges of `gnp:22,0.3,5` (treewidth 8 after 86,139
   branch-and-bound nodes).  Unbudgeted the command takes about 0.2 s;
   a 1 ms deadline must stop it with every exact measure reported as
   exhausted. *)
let gnp22_edges =
  "0-3 0-4 0-5 0-12 0-19 0-21 1-3 1-5 1-8 1-11 1-12 1-19 1-20 2-5 2-8 2-10 \
   2-13 2-21 3-7 3-10 3-11 3-17 3-19 3-20 3-21 4-8 4-9 4-10 4-12 5-7 5-8 \
   5-19 6-8 6-20 7-12 7-16 7-19 8-12 8-14 8-16 8-18 8-19 9-11 9-14 9-17 \
   9-19 9-20 10-13 10-15 11-15 12-14 13-16 13-18 14-18 14-21 15-17 16-19 \
   17-20 20-21"

let test_kg_widths_budget () =
  let atoms =
    List.map
      (fun e ->
         match String.split_on_char '-' e with
         | [ u; v ] -> Printf.sprintf "knows(x%s, x%s)" u v
         | _ -> Alcotest.fail ("bad edge " ^ e))
      (String.split_on_char ' ' gnp22_edges)
  in
  let query =
    Printf.sprintf "\"(%s) := %s\""
      (String.concat ", " (List.init 22 (Printf.sprintf "x%d")))
      (String.concat " & " atoms)
  in
  let code, out = run_stdout ("kg-widths " ^ query ^ " --deadline-ms 1") in
  Alcotest.(check int) "kg-widths under 1 ms: exit code" 3 code;
  Alcotest.(check bool) "kg-widths under 1 ms: names the trip" true
    (contains "exhausted (deadline)" out);
  check_code "kg-widths with slack deadline" 0
    "kg-widths \"(x, y) := exists z . knows(x, z) & knows(z, y)\" \
     --deadline-ms 10000"

(* kg-widths reports the WL-dimension only where Kcq defines it
   (connected queries with a free variable); the other measures of a
   disconnected or boolean query are defined and still printed *)
let test_kg_widths_no_dimension () =
  List.iter
    (fun query ->
       let code, stderr_text = run_capture ("kg-widths " ^ query) in
       let _, out = run_stdout ("kg-widths " ^ query) in
       Alcotest.(check int) (query ^ ": exit code") 0 code;
       Alcotest.(check string) (query ^ ": stderr") "" stderr_text;
       Alcotest.(check bool) (query ^ ": dimension n/a") true
         (String.ends_with
            ~suffix:
              "\nWL-dimension:        n/a (connected queries with a free \
               variable only)"
            out);
       Alcotest.(check bool) (query ^ ": widths printed") true
         (contains "\nsemantic ext. width: 1\n" out))
    [ "\"(x, z) := exists y . knows(x, y)\"";
      "\"() := exists y1 y2 . knows(y1, y2)\"" ]

(* The 8-leaf star is counting minimal: one pinned retraction search
   for its centre settles it, and the 1 s bound fails any search that
   enumerates the 8^8 maps of its leaves into themselves (seconds per
   core, three cores per command).  The expected lines are the
   paper's values: sew = WL-dimension = 8 at treewidth 1. *)
let test_widths_eight_star () =
  let leaves = List.init 8 (fun i -> Printf.sprintf "x%d" (i + 1)) in
  let star relation centre =
    Printf.sprintf "(%s) := exists %s . %s" (String.concat ", " leaves) centre
      (String.concat " & "
         (List.map (fun x -> Printf.sprintf "%s(%s, %s)" relation x centre)
            leaves))
  in
  let check_run name args expected =
    let t0 = Unix.gettimeofday () in
    let code, out = run_stdout args in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Alcotest.(check int) (name ^ ": exit code") 0 code;
    Alcotest.(check string) (name ^ ": output") (String.concat "\n" expected)
      out;
    Alcotest.(check bool)
      (Printf.sprintf "%s: answers within 1 s (took %.1f ms)" name ms)
      true (ms <= 1000.0)
  in
  let plain = star "E" "y" and kg = star "knows" "z" in
  check_run "widths" (Printf.sprintf "widths \"%s\"" plain)
    [ "query:               " ^ plain;
      "variables:           8 free, 1 quantified";
      "connected:           true";
      "counting minimal:    true";
      "treewidth:           1";
      "quantified star size:8";
      "extension width:     8";
      "semantic ext. width: 8";
      "WL-dimension:        8   (Theorem 1)" ];
  check_run "kg-widths" (Printf.sprintf "kg-widths \"%s\"" kg)
    [ "query:               " ^ kg;
      "connected:           true";
      "counting minimal:    true";
      "extension width:     8";
      "semantic ext. width: 8";
      "WL-dimension:        8" ]

(* [invariants] surveys a fixed built-in library in tens of
   milliseconds, so it takes no budget flags: a deadline would promise
   an exit 3 it never delivers, and Cmdliner now rejects one as a
   usage error (124) *)
let test_invariants_no_budget () =
  let code, out = run_stdout "invariants" in
  Alcotest.(check int) "invariants: exit code" 0 code;
  Alcotest.(check bool) "invariants: prints its table" true
    (String.starts_with ~prefix:"parameter" out && contains "2K3/C6" out);
  check_code "invariants rejects --deadline-ms" 124
    "invariants --deadline-ms 1";
  check_code "invariants rejects --max-live-mb" 124
    "invariants --max-live-mb 64"

(* ---- process start-up --------------------------------------------- *)

(* A no-work command allocates only what every run needs: metric
   stripes and the journal ring are created on first use, so a new
   eagerly built module-level table shows up here.  OCAMLRUNPARAM's
   v=0x400 prints the process's GC totals on stderr at exit; the count
   is deterministic, so the bound is exact rather than statistical. *)
let startup_words_max = 30_000

(* [allocated_words args] runs wlcq with the GC totals on and reads
   [allocated_words] off stderr *)
let allocated_words args =
  let err = Filename.temp_file "wlcq_test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "OCAMLRUNPARAM=v=0x400 %s %s >/dev/null 2>%s" wlcq args
         (Filename.quote err))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  let words =
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "allocated_words"; n ] -> int_of_string_opt (String.trim n)
         | _ -> None)
      (String.split_on_char '\n' text)
  in
  (code, words)

let test_startup_allocation () =
  let code, words = allocated_words "tw --graph path:2" in
  Alcotest.(check int) "tw path:2: exit code" 0 code;
  match words with
  | None -> Alcotest.fail "no allocated_words line on stderr"
  | Some w ->
    Alcotest.(check bool)
      (Printf.sprintf "start-up allocates at most %d words (allocated %d)"
         startup_words_max w)
      true (w <= startup_words_max)

let with_tmp suffix f =
  let file = Filename.temp_file "wlcq_test" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

(* A run with [--metrics-out] must leave a complete OpenMetrics file
   behind whatever the exit code: the flush runs at exit, so degraded
   (3) and malformed (2) paths still document themselves. *)
let check_metrics_out ?(require_metrics = true) name expected_code args =
  with_tmp ".om" (fun file ->
      let code, _ =
        run_capture (Printf.sprintf "%s --metrics-out %s" args file)
      in
      Alcotest.(check int) (name ^ ": exit code") expected_code code;
      let text = read_file file in
      Alcotest.(check bool)
        (name ^ ": exposition ends with # EOF")
        true
        (contains "# EOF" text);
      if require_metrics then
        Alcotest.(check bool)
          (name ^ ": exposition carries wlcq_ metrics")
          true
          (contains "# TYPE wlcq_" text))

let test_metrics_out_success () =
  check_metrics_out "tw success" 0 "tw --graph clique:4"

let test_metrics_out_exhausted () =
  check_metrics_out "tw degraded under 1 ms" 3
    "tw --graph gnp:28,0.5,7 --deadline-ms 1"

let test_metrics_out_malformed () =
  (* the run dies validating its budget, before any engine work: the
     flush still writes a complete (if empty) exposition *)
  check_metrics_out ~require_metrics:false "bad deadline still flushes" 2
    "tw --graph clique:4 --deadline-ms=-3"

let test_journal_out () =
  with_tmp ".jsonl" (fun file ->
      let code, _ =
        run_capture
          (Printf.sprintf
             "tw --graph gnp:28,0.5,7 --deadline-ms 1 --journal %s" file)
      in
      Alcotest.(check int) "journal run exit code" 3 code;
      let lines = String.split_on_char '\n' (String.trim (read_file file)) in
      Alcotest.(check bool) "journal has events" true (List.length lines >= 1);
      Alcotest.(check bool)
        "journal mentions the budget trip" true
        (List.exists (contains "budget.trip") lines))

let om_before =
  "# TYPE wlcq_test_work counter\n\
   wlcq_test_work_total 100\n\
   # TYPE wlcq_test_lat_ns histogram\n\
   wlcq_test_lat_ns_bucket{le=\"8\"} 10\n\
   wlcq_test_lat_ns_bucket{le=\"+Inf\"} 10\n\
   wlcq_test_lat_ns_sum 60\n\
   wlcq_test_lat_ns_count 10\n\
   # EOF\n"

(* the histogram mass moves <=8 -> <=32 (a 4x p99 shift) and the
   counter grows 10x: both above the 2x default threshold *)
let om_after =
  "# TYPE wlcq_test_work counter\n\
   wlcq_test_work_total 1000\n\
   # TYPE wlcq_test_lat_ns histogram\n\
   wlcq_test_lat_ns_bucket{le=\"8\"} 0\n\
   wlcq_test_lat_ns_bucket{le=\"32\"} 10\n\
   wlcq_test_lat_ns_bucket{le=\"+Inf\"} 10\n\
   wlcq_test_lat_ns_sum 250\n\
   wlcq_test_lat_ns_count 10\n\
   # EOF\n"

let test_obs_diff_identical () =
  with_tmp ".om" (fun a ->
      with_tmp ".om" (fun b ->
          write_file a om_before;
          write_file b om_before;
          let code, _ = run_capture (Printf.sprintf "obs-diff %s %s" a b) in
          Alcotest.(check int) "identical snapshots exit 0" 0 code))

let test_obs_diff_regression () =
  with_tmp ".om" (fun a ->
      with_tmp ".om" (fun b ->
          write_file a om_before;
          write_file b om_after;
          let code, _ = run_capture (Printf.sprintf "obs-diff %s %s" a b) in
          Alcotest.(check int) "2x regression exits 1" 1 code;
          (* a threshold above the injected shift silences the verdict *)
          let code, _ =
            run_capture
              (Printf.sprintf "obs-diff --threshold 20 %s %s" a b)
          in
          Alcotest.(check int) "threshold 20x exits 0" 0 code))

let test_obs_diff_malformed () =
  with_tmp ".om" (fun a ->
      with_tmp ".om" (fun b ->
          write_file a om_before;
          write_file b "wlcq_x_total nonsense\n# EOF\n";
          let code, stderr_text =
            run_capture (Printf.sprintf "obs-diff %s %s" a b)
          in
          Alcotest.(check int) "malformed snapshot exits 2" 2 code;
          Alcotest.(check bool)
            "stderr uses the error: convention" true
            (contains "error: " stderr_text)));
  let code, _ = run_capture "obs-diff /nonexistent.a /nonexistent.b" in
  Alcotest.(check int) "missing file exits 2" 2 code

(* ---- PR 10: the daemon and its client ---------------------------- *)

(* spawn [wlcq serve ...] detached from our stdio; returns the pid *)
let start_daemon args =
  let argv = Array.of_list (wlcq :: args) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process wlcq argv devnull devnull devnull)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wlcq-cli-%d-%d.sock" (Unix.getpid ()) !n)

let wait_for ?(timeout_s = 10.0) what f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* bounded waitpid: a drain that never finishes must fail the test,
   not hang the suite *)
let wait_exit ?(timeout_s = 15.0) pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "daemon did not exit within the grace period"
      end
      else begin
        Unix.sleepf 0.02;
        go ()
      end
    | _, status -> status
  in
  go ()

let kill_if_alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let with_daemon args f =
  let socket = fresh_socket () in
  let pid = start_daemon ([ "serve"; "--socket"; socket ] @ args) in
  Fun.protect
    ~finally:(fun () ->
      kill_if_alive pid;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      wait_for "daemon socket" (fun () -> Sys.file_exists socket);
      f ~socket ~pid)

let call_code socket args =
  fst (run_capture (Printf.sprintf "call --socket %s %s" socket args))

let test_serve_sigterm_drain () =
  with_daemon [ "--workers"; "1" ] (fun ~socket ~pid ->
      Alcotest.(check int) "call ping exits 0" 0 (call_code socket "ping");
      Alcotest.(check int) "call treewidth exits 0" 0
        (call_code socket "treewidth --graph clique:4");
      Unix.kill pid Sys.sigterm;
      (match wait_exit pid with
       | Unix.WEXITED 0 -> ()
       | Unix.WEXITED n -> Alcotest.failf "drain exited %d, wanted 0" n
       | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
         Alcotest.fail "drain must exit, not die on a signal");
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket))

let test_serve_call_exit_codes () =
  with_daemon [ "--workers"; "1" ] (fun ~socket ~pid:_ ->
      Alcotest.(check int) "unknown verb exits 2" 2
        (call_code socket "frobnicate");
      Alcotest.(check int) "bad graph spec exits 2" 2
        (call_code socket "treewidth --graph zzz");
      Alcotest.(check int) "1 ms deadline exits 3" 3
        (call_code socket "treewidth --graph gnp:40,0.4,3 --deadline-ms 1");
      Alcotest.(check int) "daemon still serves, exit 0" 0
        (call_code socket "ping"));
  (* no daemon at all: connect failure is malformed input, exit 2 *)
  Alcotest.(check int) "missing socket exits 2" 2
    (call_code "/nonexistent-wlcq.sock" "ping");
  (* a client computes nothing, so the engine and cache flags are not
     its options: cmdliner rejects them (exit 124) *)
  List.iter
    (fun flag ->
       Alcotest.(check int) (flag ^ " is not a call option") 124
         (call_code "/nonexistent-wlcq.sock" ("ping " ^ flag)))
    [ "--engine auto"; "--cache-size-mb 1"; "--cache-load x"; "--cache-save x" ]

(* satellite: a periodic flush plus an atomic snapshot rename means a
   kill -9 still leaves a complete, parseable OpenMetrics file *)
let test_serve_kill9_snapshot () =
  with_tmp ".om" (fun metrics ->
      Sys.remove metrics;
      with_daemon
        [ "--workers"; "1"; "--flush-interval-s"; "0.05"; "--metrics-out";
          metrics ]
        (fun ~socket ~pid ->
          Alcotest.(check int) "served before the kill" 0
            (call_code socket "ping");
          wait_for "first periodic flush" (fun () -> Sys.file_exists metrics);
          Unix.kill pid Sys.sigkill;
          (match wait_exit pid with
           | Unix.WSIGNALED s when s = Sys.sigkill -> ()
           | _ -> Alcotest.fail "kill -9 must terminate the daemon");
          let text = read_file metrics in
          Alcotest.(check bool)
            "snapshot is complete (# EOF)" true (contains "# EOF" text);
          Alcotest.(check bool)
            "snapshot carries wlcq_ metrics" true
            (contains "# TYPE wlcq_" text)))

(* storm-lite through the real binary: seeded faults on the live
   socket paths; the daemon must keep answering and drain cleanly *)
let test_serve_fault_storm_lite () =
  with_daemon
    [ "--workers"; "1"; "--fault-seed"; "42"; "--fault-rate"; "0.3";
      "--fault-sites"; "read_stall,write_stall,worker_raise";
      "--write-timeout-s"; "0.2" ]
    (fun ~socket ~pid ->
      (* every call may be shed or dropped — that is the point; the
         binary must keep exiting with contract codes, never crash *)
      for i = 1 to 25 do
        let code =
          call_code socket
            (if i mod 3 = 0 then "treewidth --graph clique:4 --timeout-s 2"
             else "ping --timeout-s 2")
        in
        Alcotest.(check bool)
          (Printf.sprintf "call %d exits within the contract" i)
          true
          (List.mem code [ 0; 2; 3; 4 ])
      done;
      (* under rate 0.3 a ping soon gets through *)
      let rec ping_until n =
        if call_code socket "ping --timeout-s 2" = 0 then ()
        else if n = 0 then Alcotest.fail "daemon unresponsive under storm"
        else ping_until (n - 1)
      in
      ping_until 20;
      Unix.kill pid Sys.sigterm;
      match wait_exit pid with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "storm-lite daemon must drain to exit 0")

let () =
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          Alcotest.test_case "success" `Quick test_success_codes;
          Alcotest.test_case "negative verdict" `Quick test_negative_verdict;
          Alcotest.test_case "malformed input" `Quick test_malformed_inputs;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "kg-widths honours its budget" `Quick
            test_kg_widths_budget;
          Alcotest.test_case "tw bracket honours its budget" `Quick
            test_tw_bracket_deadline;
          Alcotest.test_case "cfi finishes and honours its budget" `Quick
            test_cfi_budget;
          Alcotest.test_case "quantum counts honour their budget" `Quick
            test_quantum_counts_deadline;
          Alcotest.test_case "invariants takes no budget flags" `Quick
            test_invariants_no_budget;
        ] );
      ( "widths",
        [
          Alcotest.test_case "kg-widths without a dimension" `Quick
            test_kg_widths_no_dimension;
          Alcotest.test_case "8-leaf star within a second" `Quick
            test_widths_eight_star;
        ] );
      ( "ans",
        [
          Alcotest.test_case "exact where enumeration cannot finish" `Quick
            test_ans_past_enumeration;
          Alcotest.test_case "counts past max_int" `Quick test_ans_big_count;
          Alcotest.test_case "star3 past enumeration" `Quick test_ans_star3;
          Alcotest.test_case "injective through the expansion" `Quick
            test_ans_injective;
        ] );
      ( "start-up",
        [
          Alcotest.test_case "no-work call allocation" `Quick
            test_startup_allocation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics-out on success" `Quick
            test_metrics_out_success;
          Alcotest.test_case "metrics-out on exit 3" `Quick
            test_metrics_out_exhausted;
          Alcotest.test_case "metrics-out on exit 2" `Quick
            test_metrics_out_malformed;
          Alcotest.test_case "journal file on exit 3" `Quick test_journal_out;
          Alcotest.test_case "obs-diff identical" `Quick
            test_obs_diff_identical;
          Alcotest.test_case "obs-diff detects 2x shift" `Quick
            test_obs_diff_regression;
          Alcotest.test_case "obs-diff malformed input" `Quick
            test_obs_diff_malformed;
        ] );
      ( "serve",
        [
          Alcotest.test_case "SIGTERM drains to exit 0" `Quick
            test_serve_sigterm_drain;
          Alcotest.test_case "call exit-code contract" `Quick
            test_serve_call_exit_codes;
          Alcotest.test_case "kill -9 leaves a parseable snapshot" `Quick
            test_serve_kill9_snapshot;
          Alcotest.test_case "fault storm-lite over the binary" `Slow
            test_serve_fault_storm_lite;
        ] );
    ]
