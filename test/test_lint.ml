(* The linter linted: every rule must fire on its known-bad fixture,
   pragmas must suppress (and be counted), and pragma misuse must be
   reported.  The fixture tree lives in test/lint_fixtures/ and is
   skipped by ordinary lint runs (the driver prunes [lint_fixtures]
   directories unless asked). *)

open Lint_engine

let result =
  lazy (Engine.run ~include_fixtures:true ~roots:[ "lint_fixtures" ] ())

let findings_in file rule =
  let r = Lazy.force result in
  List.filter
    (fun (d : Diagnostic.t) ->
       String.equal d.file ("lint_fixtures/" ^ file)
       && String.equal (Diagnostic.rule_id d.rule) rule)
    r.Engine.findings

let count_in file rule = List.length (findings_in file rule)

let check_count name file rule expected =
  Alcotest.(check int) name expected (count_in file rule)

let test_r1_fires () =
  (* = Some, <> None, = [1;2;3], bare compare, Hashtbl.hash, and the
     list-keyed Hashtbl.create *)
  check_count "R1 count on bad_poly_eq" "bad_poly_eq.ml" "R1" 6

let test_r2_fires () =
  (* List.hd, Option.get, Array.unsafe_get, bare failwith message,
     bare invalid_arg message *)
  check_count "R2 count on bad_partial" "bad_partial.ml" "R2" 5

let test_r3_fires () =
  (* shared_counter and shared_memo, both visible to Domain.spawn *)
  check_count "R3 count on bad_domain" "bad_domain.ml" "R3" 2

let test_r3_allows_atomic () =
  (* the Atomic / Domain.DLS pattern used by lib/obs must stay clean:
     shared_counter and per_domain_scratch are visible to Domain.spawn
     but are domain-safe by construction *)
  List.iter
    (fun rule ->
       check_count ("good_atomic is clean of " ^ rule) "good_atomic.ml"
         rule 0)
    [ "R1"; "R2"; "R3" ]

let test_r3_allows_parallel_dp () =
  (* the driver-local parallel-DP pattern used by lib/hom's packed
     engine: locally allocated result tables, strided worker writes,
     join before reading — no top-level mutables, so R3 stays silent *)
  List.iter
    (fun rule ->
       check_count ("good_parallel_dp is clean of " ^ rule)
         "good_parallel_dp.ml" rule 0)
    [ "R0"; "R1"; "R2"; "R3" ]

let test_r4_fires () =
  (* missing .mli and print_endline, both lib-only checks *)
  check_count "R4 count on lib/bad_print" "lib/bad_print.ml" "R4" 2

let message_of file rule part =
  match findings_in file rule with
  | [] -> Alcotest.failf "no %s finding in %s" rule file
  | ds ->
    Alcotest.(check bool)
      (Printf.sprintf "a %s message in %s mentions %S" rule file part)
      true
      (List.exists
         (fun (d : Diagnostic.t) ->
            (* substring scan; Diagnostic messages are single-line *)
            let n = String.length part in
            let m = String.length d.message in
            let rec at i = i + n <= m
                           && (String.equal (String.sub d.message i n) part
                               || at (i + 1)) in
            at 0)
         ds)

let test_r7_same_file () =
  (* helper_spin's nested loop and the spin_a/spin_b cycle, both below
     sum_budgeted; the polled, pragma-suppressed and flat-init
     functions stay clean *)
  check_count "R7 count on lib/bad_budget_reach" "lib/bad_budget_reach.ml"
    "R7" 2;
  message_of "lib/bad_budget_reach.ml" "R7" "helper_spin";
  message_of "lib/bad_budget_reach.ml" "R7" "spin_a";
  message_of "lib/bad_budget_reach.ml" "R7" "sum_budgeted"

let test_r7_cross_module () =
  (* the unpolled loop lives in xmod_spin.ml, one call away from the
     entry in xmod_entry.ml: the finding lands on the loop and names
     the entry across the module boundary *)
  check_count "R7 count on lib/xmod_spin" "lib/xmod_spin.ml" "R7" 1;
  message_of "lib/xmod_spin.ml" "R7" "run_budgeted"

let test_r7_unbudgeted_call () =
  (* drain_budgeted's loop calls a polling callee WITHOUT ~budget, so
     the callee's polls are pinned to its defaulted budget and cannot
     make the caller's loop killable; threaded_budgeted passes ~budget
     and stays clean.  This pins the Td_count/Brute.iter shape the
     rule originally surfaced in lib/. *)
  check_count "R7 count on lib/xmod_entry" "lib/xmod_entry.ml" "R7" 1;
  message_of "lib/xmod_entry.ml" "R7" "drain_budgeted"

let test_r7_local_value_no_call () =
  (* a parameter, a let value and a case variable named [counters]
     are read, never called: the unpolled top-level [counters] stays
     unreachable from both entries *)
  check_count "R7 count on lib/good_shadowing_value"
    "lib/good_shadowing_value.ml" "R7" 0

let test_r7_local_value_no_poll () =
  (* the array [run] shadows the polling function [run]: reading it
     does not poll, so the nested loop is a finding *)
  check_count "R7 count on lib/bad_shadowed_poll" "lib/bad_shadowed_poll.ml"
    "R7" 1;
  message_of "lib/bad_shadowed_poll.ml" "R7" "sweep_budgeted"

let test_r5_retired () =
  (* R5's syntactic check is subsumed by R7's reachability analysis;
     the id no longer parses, but pragmas naming it are pointed at the
     successor *)
  Alcotest.(check bool) "R5 is not a live rule id" true
    (Option.is_none (Diagnostic.rule_of_id "R5"));
  Alcotest.(check (option string)) "R5 retired in favour of R7"
    (Some "R7")
    (Diagnostic.retired_successor "R5");
  check_count "stale R5 pragma is R0" "pragma_retired.ml" "R0" 1;
  message_of "pragma_retired.ml" "R0" "R7"

let test_r8_fires () =
  (* Failure (one call deep) and Not_found (two calls deep) both leak
     from lookup_budgeted, with the witness chain in the message; the
     match-exception and Budget.Exhausted-mapping entries stay clean *)
  check_count "R8 count on lib/bad_outcome_escape" "lib/bad_outcome_escape.ml"
    "R8" 2;
  message_of "lib/bad_outcome_escape.ml" "R8" "Failure";
  message_of "lib/bad_outcome_escape.ml" "R8" "Not_found";
  message_of "lib/bad_outcome_escape.ml" "R8" "deep_find"

let test_r8_cross_module () =
  (* Budget.Exhausted raised by the callee's tick_check in
     xmod_spin.ml escapes both entries in xmod_entry.ml; the witness
     chain crosses the module boundary *)
  check_count "R8 count on lib/xmod_entry" "lib/xmod_entry.ml" "R8" 2;
  message_of "lib/xmod_entry.ml" "R8" "Budget.Exhausted";
  message_of "lib/xmod_entry.ml" "R8" "xmod_spin.ml"

let test_r9_fires () =
  (* the per-iteration tuple and closure; the hoisted-closure and
     pragma-suppressed variants stay clean *)
  check_count "R9 count on lib/hom/bad_hot_alloc" "lib/hom/bad_hot_alloc.ml"
    "R9" 2

let test_r10_fires () =
  (* the plain Hashtbl.create and the *_tbl functor table, both at top
     level; the pragma-suppressed table, the function-local table and
     the ref cell stay clean *)
  check_count "R10 count on lib/bad_memo_table" "lib/bad_memo_table.ml"
    "R10" 2;
  message_of "lib/bad_memo_table.ml" "R10" "memo";
  message_of "lib/bad_memo_table.ml" "R10" "graph_memo";
  message_of "lib/bad_memo_table.ml" "R10" "Wlcq_cache.Cache.store"

let test_r10_exempts_cache_tier () =
  (* the same shapes under a lib/cache path component are the tier's
     own state and stay clean *)
  check_count "R10 silent in lib/cache" "lib/cache/good_tier_table.ml"
    "R10" 0

let test_r11_fires_outside_io () =
  (* Unix.read, Unix.select, Unix.accept and the aliased
     U.write_substring, all in a lib/serve file that is not io.ml;
     getpid and set_nonblock stay clean *)
  check_count "R11 count on lib/serve/bad_unix_direct"
    "lib/serve/bad_unix_direct.ml" "R11" 4;
  message_of "lib/serve/bad_unix_direct.ml" "R11" "Io wrapper"

let test_r11_io_needs_timeout () =
  (* in the designated io.ml, only read_forever (no ~timeout_s
     parameter) is a finding; the bounded wrapper and the nested
     helper that closes over its wrapper's bound stay clean *)
  check_count "R11 count on lib/serve/io" "lib/serve/io.ml" "R11" 1;
  message_of "lib/serve/io.ml" "R11" "read_forever"

let test_r12_fires () =
  (* Unix.getpwnam, the aliased U.getgrgid, Unix.getaddrinfo, the
     locally opened gethostbyname, Dynlink.loadfile and the Dynlink
     module alias; getpid, gethostname and getuid stay clean *)
  check_count "R12 count on bin/bad_nss" "bin/bad_nss.ml" "R12" 6;
  message_of "bin/bad_nss.ml" "R12" "Unix.getgrgid";
  message_of "bin/bad_nss.ml" "R12" "Unix.gethostbyname";
  message_of "bin/bad_nss.ml" "R12" "Dynlink"

let test_r12_shipped_only () =
  check_count "R12 silent outside lib/ and bin/" "nss_in_tests.ml" "R12" 0

let test_r10_suppression_counted () =
  let r = Lazy.force result in
  List.iter
    (fun (rc : Engine.rule_count) ->
       if String.equal (Diagnostic.rule_id rc.rule) "R10" then
         Alcotest.(check bool) "R10 suppression counted" true
           (rc.suppressions >= 1))
    r.Engine.by_rule

let test_r6_fires () =
  (* the literal and shifted-literal cutoffs; the small-constant,
     non-constant-bound, equality and pragma-suppressed comparisons
     stay clean *)
  check_count "R6 count on lib/hom/bad_threshold" "lib/hom/bad_threshold.ml"
    "R6" 2

let test_pragmas_suppress () =
  let r = Lazy.force result in
  List.iter
    (fun rule -> check_count ("suppressed is clean of " ^ rule)
        "suppressed.ml" rule 0)
    [ "R0"; "R1"; "R2"; "R3"; "R4" ];
  (* each suppression must be counted towards --stats *)
  List.iter
    (fun (rc : Engine.rule_count) ->
       match Diagnostic.rule_id rc.rule with
       | "R1" | "R2" | "R3" | "R6" | "R7" | "R9" ->
         Alcotest.(check bool)
           (Diagnostic.rule_id rc.rule ^ " suppression counted") true
           (rc.suppressions >= 1)
       | _ -> ())
    r.Engine.by_rule

let test_unused_pragma_reported () =
  check_count "unused pragma is R0" "unused_pragma.ml" "R0" 1

let test_malformed_pragmas_reported () =
  (* missing rule+reason, unknown rule id, missing reason *)
  check_count "malformed pragmas are R0" "malformed_pragma.ml" "R0" 3

let test_pragma_at_eof () =
  (* a pragma on the final line of a file with no trailing newline
     still parses (and, covering nothing, is reported unused) *)
  check_count "EOF pragma is parsed and unused" "pragma_eof.ml" "R0" 1

let test_pragma_crlf () =
  (* CRLF line endings: the \r must not be folded into the reason or
     break pragma parsing *)
  check_count "CRLF pragma is parsed and unused" "pragma_crlf.ml" "R0" 1

let test_run_reports_failure () =
  let r = Lazy.force result in
  Alcotest.(check bool) "fixture tree has live findings" true
    (not (List.is_empty r.Engine.findings));
  Alcotest.(check bool) "suppressions totalled" true
    (r.Engine.total_suppressions >= 3)

let test_default_run_skips_fixtures () =
  (* without [include_fixtures], the lint_fixtures tree is pruned *)
  let r = Engine.run ~roots:[ "lint_fixtures" ] () in
  Alcotest.(check int) "no files scanned" 0 r.Engine.files_scanned

let test_json_output_strictly_parseable () =
  (* the --json report must satisfy the shared strict JSON acceptor
     (lib/strictjson) the Obs exporters are held to — findings carry
     arbitrary message text, so escaping bugs would surface here *)
  let json = Engine.to_json (Lazy.force result) in
  Alcotest.(check bool) "lint --json passes the strict acceptor" true
    (Wlcq_strictjson.Strict_json.parseable json)

let test_census_parse_and_drift () =
  let census =
    Engine.parse_census
      "| rule | suppressions | what |\n\
       |------|--------------|------|\n\
       | R2   | 10           | excused |\n\
       | R9   | 39           | excused |\n\
       prose mentioning R7 outside a table is ignored\n"
  in
  Alcotest.(check int) "two census rows parsed" 2 (List.length census);
  let r = Lazy.force result in
  (* the fixture tree's suppression counts differ from the recorded
     10/39, so both rows must be reported as drifted... *)
  let drift = Engine.census_drift ~census r in
  Alcotest.(check bool) "wrong counts are reported as drift" true
    (List.exists (fun (rule, recorded, _) ->
         String.equal (Diagnostic.rule_id rule) "R2" && recorded = 10)
        drift);
  (* ...and a census recording the actual counts has none *)
  let exact =
    List.filter_map
      (fun (rc : Engine.rule_count) ->
         if rc.suppressions > 0 then Some (rc.rule, rc.suppressions)
         else None)
      r.Engine.by_rule
  in
  Alcotest.(check int) "exact census has no drift" 0
    (List.length (Engine.census_drift ~census:exact r))

let () =
  Alcotest.run "wlcq_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 polymorphic comparison" `Quick test_r1_fires;
          Alcotest.test_case "R2 partial functions" `Quick test_r2_fires;
          Alcotest.test_case "R3 domain safety" `Quick test_r3_fires;
          Alcotest.test_case "R3 allows Atomic/DLS registry pattern" `Quick
            test_r3_allows_atomic;
          Alcotest.test_case "R3 allows driver-local parallel DP" `Quick
            test_r3_allows_parallel_dp;
          Alcotest.test_case "R4 hygiene" `Quick test_r4_fires;
          Alcotest.test_case "R6 hard-coded engine thresholds" `Quick
            test_r6_fires;
          Alcotest.test_case "R7 budget-poll reachability, same file" `Quick
            test_r7_same_file;
          Alcotest.test_case "R7 finds the loop across modules" `Quick
            test_r7_cross_module;
          Alcotest.test_case "R7 flags the unbudgeted polling call" `Quick
            test_r7_unbudgeted_call;
          Alcotest.test_case "R7 local value is not a call" `Quick
            test_r7_local_value_no_call;
          Alcotest.test_case "R7 local value does not poll" `Quick
            test_r7_local_value_no_poll;
          Alcotest.test_case "R5 retired into R7" `Quick test_r5_retired;
          Alcotest.test_case "R8 exception containment" `Quick test_r8_fires;
          Alcotest.test_case "R8 witness chain crosses modules" `Quick
            test_r8_cross_module;
          Alcotest.test_case "R9 hot-loop allocation" `Quick test_r9_fires;
          Alcotest.test_case "R10 module-level memo table" `Quick
            test_r10_fires;
          Alcotest.test_case "R10 exempts the cache tier" `Quick
            test_r10_exempts_cache_tier;
          Alcotest.test_case "R10 suppression counted" `Quick
            test_r10_suppression_counted;
          Alcotest.test_case "R11 blocking Unix outside io.ml" `Quick
            test_r11_fires_outside_io;
          Alcotest.test_case "R11 io.ml wrappers need a timeout bound"
            `Quick test_r11_io_needs_timeout;
          Alcotest.test_case "R12 NSS and dlopen in shipped code" `Quick
            test_r12_fires;
          Alcotest.test_case "R12 is for shipped code only" `Quick
            test_r12_shipped_only;
        ] );
      ( "pragmas",
        [
          Alcotest.test_case "reasoned pragmas suppress" `Quick
            test_pragmas_suppress;
          Alcotest.test_case "unused pragma reported" `Quick
            test_unused_pragma_reported;
          Alcotest.test_case "malformed pragma reported" `Quick
            test_malformed_pragmas_reported;
          Alcotest.test_case "pragma at EOF without newline" `Quick
            test_pragma_at_eof;
          Alcotest.test_case "pragma under CRLF endings" `Quick
            test_pragma_crlf;
        ] );
      ( "driver",
        [
          Alcotest.test_case "findings aggregate" `Quick
            test_run_reports_failure;
          Alcotest.test_case "fixtures pruned by default" `Quick
            test_default_run_skips_fixtures;
          Alcotest.test_case "--json output is strictly parseable" `Quick
            test_json_output_strictly_parseable;
          Alcotest.test_case "suppression census parses and drifts" `Quick
            test_census_parse_and_drift;
        ] );
    ]
